package fabric

import (
	"math/rand"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestFabricTelemetryConsistency drives random churn through an
// instrumented manager and cross-checks the scrapeable counters against
// the manager's own lifetime Metrics and the per-event reports — the
// telemetry must agree with the source-of-truth accounting it mirrors.
func TestFabricTelemetryConsistency(t *testing.T) {
	reg := telemetry.New()
	m, err := NewManager(topology.Torus3D(4, 4, 4, 1, 1), Options{
		MaxVCs:          4,
		Seed:            1,
		Verify:          true,
		Telemetry:       reg.Fabric(),
		EngineTelemetry: reg.Engine(),
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	const events = 20
	var repaired, unreachable, latencySum, repairSum, certifySum int64
	applied := 0
	for i := 0; i < events; i++ {
		ev, ok := m.RandomEvent(rng, 0.3)
		if !ok {
			t.Fatalf("event %d: no churn event possible", i)
		}
		rep, err := m.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): %v", i, ev, err)
		}
		if !rep.NoOp {
			applied++
			repaired += int64(rep.RepairedDests)
			unreachable += int64(rep.UnreachableDests)
			latencySum += rep.Latency.Nanoseconds()
			repairSum += rep.RepairTime.Nanoseconds()
			certifySum += rep.CertifyTime.Nanoseconds()
			if rep.CertifyTime <= 0 || rep.RepairTime+rep.CertifyTime > rep.Latency {
				t.Errorf("event %d (%s): repair %s + certify %s are not parts of latency %s",
					i, ev, rep.RepairTime, rep.CertifyTime, rep.Latency)
			}
		}
	}

	mt := m.Metrics()
	s := reg.Snapshot()

	// The applied + no-op counters partition Metrics.Events.
	if got := s.Counters["fabric_events_applied_total"] + s.Counters["fabric_events_noop_total"]; got != int64(mt.Events) {
		t.Errorf("applied+noop = %d, want Metrics.Events = %d", got, mt.Events)
	}
	if got := s.Counters["fabric_events_applied_total"]; got != int64(applied) {
		t.Errorf("fabric_events_applied_total = %d, want %d", got, applied)
	}
	if got := s.Counters["fabric_repaired_dests_total"]; got != int64(mt.RepairedDests) {
		t.Errorf("fabric_repaired_dests_total = %d, want Metrics.RepairedDests = %d", got, mt.RepairedDests)
	}
	if got := s.Counters["fabric_repaired_dests_total"]; got != repaired {
		t.Errorf("fabric_repaired_dests_total = %d, want per-report sum %d", got, repaired)
	}
	if got := s.Counters["fabric_unreachable_dests_total"]; got != unreachable {
		t.Errorf("fabric_unreachable_dests_total = %d, want %d", got, unreachable)
	}
	if got := s.Counters["fabric_layer_rebuilds_total"]; got != int64(mt.LayerRebuilds) {
		t.Errorf("fabric_layer_rebuilds_total = %d, want %d", got, mt.LayerRebuilds)
	}
	if got := s.Counters["fabric_full_recomputes_total"]; got != int64(mt.FullRecomputes) {
		t.Errorf("fabric_full_recomputes_total = %d, want %d", got, mt.FullRecomputes)
	}
	if got := s.Counters["fabric_table_entries_changed_total"]; got != int64(mt.Delta.Changed) {
		t.Errorf("fabric_table_entries_changed_total = %d, want %d", got, mt.Delta.Changed)
	}

	// The epoch gauge mirrors the published snapshot version, which
	// advances once per applied event.
	if got := s.Gauges["fabric_epoch"]; got != int64(m.Epoch()) {
		t.Errorf("fabric_epoch = %d, want %d", got, m.Epoch())
	}
	if m.Epoch() != uint64(applied) {
		t.Errorf("epoch = %d, want %d applied events", m.Epoch(), applied)
	}

	// Repair-scope histogram: one observation per applied event, summing
	// to the repaired-destination total.
	scope := s.Histograms["fabric_repair_scope_dests"]
	if scope.Count != int64(applied) {
		t.Errorf("fabric_repair_scope_dests count = %d, want %d", scope.Count, applied)
	}
	if scope.Sum != repaired {
		t.Errorf("fabric_repair_scope_dests sum = %d, want %d", scope.Sum, repaired)
	}

	// Publish-latency histogram: same cardinality, nanosecond magnitudes
	// consistent with the reports (telemetry is recorded from the same
	// Latency values, so the sums match exactly).
	pub := s.Histograms["fabric_epoch_publish_nanos"]
	if pub.Count != int64(applied) {
		t.Errorf("fabric_epoch_publish_nanos count = %d, want %d", pub.Count, applied)
	}
	if pub.Sum != latencySum {
		t.Errorf("fabric_epoch_publish_nanos sum = %d, want %d", pub.Sum, latencySum)
	}

	// The two stage histograms split that latency where the stages run.
	for name, want := range map[string]int64{"fabric_repair_nanos": repairSum, "fabric_certify_nanos": certifySum} {
		if h := s.Histograms[name]; h.Count != int64(applied) || h.Sum != want || want == 0 {
			t.Errorf("%s = %d observations summing to %d, want %d summing to %d (non-zero)", name, h.Count, h.Sum, applied, want)
		}
	}

	// The embedded engine telemetry saw the initial full routing.
	if s.Counters["engine_routes_total"] < 1 {
		t.Error("engine telemetry missed the initial full routing")
	}
	// One fabric_event ring entry per applied event.
	n := 0
	for _, e := range s.Events {
		if e.Kind == "fabric_event" {
			n++
		}
	}
	if n != applied {
		t.Errorf("%d fabric_event ring entries, want %d", n, applied)
	}
}

// TestFabricTelemetryOffIsIdentical: an uninstrumented manager must
// behave identically (same epochs, same repair metrics) — the nil bundle
// records nothing and changes nothing.
func TestFabricTelemetryOffIsIdentical(t *testing.T) {
	run := func(reg *telemetry.Registry) (Metrics, uint64) {
		m, err := NewManager(topology.Torus3D(4, 4, 4, 1, 1), Options{
			MaxVCs:          4,
			Seed:            1,
			Telemetry:       reg.Fabric(),
			EngineTelemetry: reg.Engine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 12; i++ {
			ev, ok := m.RandomEvent(rng, 0.3)
			if !ok {
				t.Fatalf("event %d: no churn event possible", i)
			}
			if _, err := m.Apply(ev); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
		return m.Metrics(), m.Epoch()
	}
	offMetrics, offEpoch := run(nil)
	onMetrics, onEpoch := run(telemetry.New())
	// Latency is wall clock and varies run to run; everything else is
	// deterministic and must match exactly.
	offMetrics.Latency, onMetrics.Latency = 0, 0
	if offMetrics != onMetrics {
		t.Errorf("metrics diverge: off %+v, on %+v", offMetrics, onMetrics)
	}
	if offEpoch != onEpoch {
		t.Errorf("epochs diverge: off %d, on %d", offEpoch, onEpoch)
	}
}
