package fabric

import (
	"fmt"
	"time"

	"repro/internal/cdg"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// EventReport describes what one Apply did: how much of the fabric's
// forwarding state the event touched and how long the repair took. These
// are the operational metrics of a fail-in-place subnet manager — the
// smaller RepairedDests and the delta, the less re-cabling the live
// network observes.
type EventReport struct {
	// Epoch is the snapshot version published by this event (unchanged
	// for no-ops).
	Epoch uint64
	// Event is the applied reconfiguration.
	Event Event
	// NoOp is true when the event did not change the topology (failing an
	// already-failed link, joining an alive one).
	NoOp bool
	// RepairedDests counts destinations whose paths were recomputed;
	// TotalDests is the size of the destination set (what a full recompute
	// would route).
	RepairedDests, TotalDests int
	// UnreachableDests counts destinations left without routes
	// (disconnected by the event).
	UnreachableDests int
	// LayerRebuilds counts layers whose incremental repair was infeasible
	// and which were re-routed wholesale; FullRecompute is true when the
	// whole fabric had to be re-routed from scratch.
	LayerRebuilds int
	FullRecompute bool
	// RootsReused counts layer repairs that accepted a cached escape root,
	// skipping the betweenness-centrality pass.
	RootsReused int
	// Seeded counts the surviving old-configuration dependencies carried
	// into the repair CDGs (the UPR-style old+new union).
	Seeded cdg.SeedStats
	// Delta compares the published table against the previous epoch's.
	Delta routing.TableDelta
	// Latency is the wall-clock time of the reconfiguration (repair +
	// verification + publication).
	Latency time.Duration
	// RepairTime is the wall time of the layer-job barrier (zero when no
	// job ran: nothing affected, or FullRecompute mode); CertifyTime that
	// of verifier + post-check, summed over the attempts of an event that
	// fell back to a full recompute. Both are parts of Latency.
	RepairTime, CertifyTime time.Duration
	// Verified is true when the transition was checked by the routing
	// verifier (connectivity + deadlock freedom).
	Verified bool
	// PostChecked is true when the transition passed the configured
	// PostCheck hook (typically the independent oracle).
	PostChecked bool
}

func (r *EventReport) String() string {
	mode := "incremental"
	if r.FullRecompute {
		mode = "full"
	}
	if r.NoOp {
		mode = "no-op"
	}
	return fmt.Sprintf("epoch %d: %s — %s, repaired %d/%d dests, %.1f%% entries unchanged, %s",
		r.Epoch, r.Event, mode, r.RepairedDests, r.TotalDests,
		r.Delta.UnchangedFraction()*100, r.Latency.Round(time.Microsecond))
}

// recordEvent publishes one event's outcome into the telemetry bundle.
// The report is the epoch's record; the counters are sums of the
// reports (a no-op counts only in fabric_events_noop_total, a failed
// event only in fabric_events_failed_total), so they can be cross-checked
// against the reports a caller received (the telemetry-consistency
// tests). Nil-safe.
func recordEvent(tm *telemetry.FabricMetrics, r *EventReport, err error) {
	if tm == nil {
		return
	}
	if err != nil {
		tm.Errors.Inc()
		return
	}
	if r.NoOp {
		tm.NoOps.Inc()
		return
	}
	tm.EventsApplied.Inc()
	tm.RepairedDests.Add(int64(r.RepairedDests))
	tm.UnreachableDests.Add(int64(r.UnreachableDests))
	tm.RepairScope.Observe(int64(r.RepairedDests))
	tm.LayerRebuilds.Add(int64(r.LayerRebuilds))
	if r.FullRecompute {
		tm.FullRecomputes.Inc()
	}
	tm.SeededChannels.Add(int64(r.Seeded.Channels))
	tm.SeededDeps.Add(int64(r.Seeded.Deps))
	tm.EntriesChanged.Add(int64(r.Delta.Changed))
	tm.EntriesAdded.Add(int64(r.Delta.Added))
	tm.EntriesRemoved.Add(int64(r.Delta.Removed))
	tm.PublishNanos.Observe(r.Latency.Nanoseconds())
	tm.RepairNanos.Observe(r.RepairTime.Nanoseconds())
	tm.CertifyNanos.Observe(r.CertifyTime.Nanoseconds())
	tm.Epoch.Set(int64(r.Epoch))
	full := int64(0)
	if r.FullRecompute {
		full = 1
	}
	if tm.Events != nil {
		tm.Events.Emit("fabric_event", map[string]int64{
			"epoch":          int64(r.Epoch),
			"repaired_dests": int64(r.RepairedDests),
			"total_dests":    int64(r.TotalDests),
			"layer_rebuilds": int64(r.LayerRebuilds),
			"full_recompute": full,
			"latency_ns":     r.Latency.Nanoseconds(),
		})
	}
}
