package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every handle method must be a no-op (not a panic) on a
// nil receiver — this is the zero-overhead-when-off contract that lets
// instrumented code carry a single possibly-nil pointer.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Error("nil counter Load != 0")
	}
	var g *Gauge
	g.Set(5)
	g.Add(-2)
	g.SetMax(7)
	if g.Load() != 0 {
		t.Error("nil gauge Load != 0")
	}
	var h *Histogram
	h.Observe(4)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Error("nil histogram not empty")
	}
	var r *Ring
	r.Emit("kind", map[string]int64{"a": 1})
	if r.Events() != nil || r.Dropped() != 0 {
		t.Error("nil ring not empty")
	}

	var reg *Registry
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x") != nil || reg.Ring() != nil {
		t.Error("nil registry handed out non-nil handles")
	}
	if reg.Engine() != nil || reg.Fabric() != nil || reg.Sim() != nil || reg.Distrib() != nil || reg.Shard() != nil {
		t.Error("nil registry handed out non-nil bundles")
	}
	var sm *SimMetrics
	if sm.QueueHWMFor(3) != nil {
		t.Error("nil SimMetrics.QueueHWMFor != nil")
	}
	s := reg.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
	// Nil-bundle recording, as instrumented code does it.
	var em *EngineMetrics
	_ = em // bundles are plain structs; their nil handles are covered above
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(4)
	c.Inc()
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("same name must return the same counter")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	g.SetMax(5) // below current: no change
	if g.Load() != 7 {
		t.Error("SetMax lowered the gauge")
	}
	g.SetMax(12)
	if g.Load() != 12 {
		t.Error("SetMax did not raise the gauge")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 1010 { // -5 clamps to 0
		t.Errorf("sum = %d, want 1010", h.Sum())
	}
	if h.Max() != 1000 {
		t.Errorf("max = %d, want 1000", h.Max())
	}
	snap := r.Snapshot().Histograms["h"]
	// le="1": observations <= 1 are 0, 1, -5 (clamped).
	if snap.Buckets["1"] != 3 {
		t.Errorf(`bucket le="1" = %d, want 3`, snap.Buckets["1"])
	}
	// le="2" adds the single 2; le="4" adds 3 and 4.
	if snap.Buckets["2"] != 4 || snap.Buckets["4"] != 6 {
		t.Errorf(`buckets le=2/4 = %d/%d, want 4/6`, snap.Buckets["2"], snap.Buckets["4"])
	}
	// 1000 lands in le="1024"; cumulative now covers everything.
	if snap.Buckets["1024"] != 7 {
		t.Errorf(`bucket le="1024" = %d, want 7`, snap.Buckets["1024"])
	}
}

func TestRingBoundsAndSeq(t *testing.T) {
	r := &Ring{size: 4}
	for i := 0; i < 10; i++ {
		r.Emit("e", map[string]int64{"i": int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Oldest-first emission order with contiguous Seq 6..9.
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, want)
		}
		if e.Fields["i"] != int64(6+i) {
			t.Errorf("event %d payload = %d, want %d", i, e.Fields["i"], 6+i)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("g").Set(9)
	h := r.Histogram("lat")
	h.Observe(3)
	h.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 1\n",
		"# TYPE b_total counter\nb_total 2\n",
		"# TYPE g gauge\ng 9\n",
		"# TYPE lat histogram\n",
		`lat_bucket{le="4"} 1`,
		`lat_bucket{le="128"} 2`,
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 103\nlat_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Lexical family order: a_total before b_total.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Error("metric families not in lexical order")
	}
}

// TestSnapshotSubsystems: the pre-wired bundles register under their
// documented names and Snapshot reflects recorded values.
func TestSnapshotSubsystems(t *testing.T) {
	r := New()
	em, fm, sm := r.Engine(), r.Fabric(), r.Sim()
	em.DijkstraRuns.Add(11)
	fm.EventsApplied.Inc()
	fm.Epoch.Set(3)
	sm.Deadlocks.Inc()
	sm.QueueHWMFor(2).SetMax(6)
	sm.QueueHWMFor(MaxTrackedVCs + 5).SetMax(9) // folds into the last lane
	sm.Events.Emit("sim_deadlock", map[string]int64{"cycles": 42})

	s := r.Snapshot()
	if s.Counters["engine_dijkstra_runs_total"] != 11 {
		t.Error("engine_dijkstra_runs_total not in snapshot")
	}
	if s.Counters["fabric_events_applied_total"] != 1 || s.Gauges["fabric_epoch"] != 3 {
		t.Error("fabric counters not in snapshot")
	}
	if s.Counters["sim_deadlock_detected"] != 1 {
		t.Error("sim_deadlock_detected not in snapshot")
	}
	if s.Gauges["sim_vc_queue_depth_hwm_vc2"] != 6 {
		t.Error("per-VC HWM gauge not in snapshot")
	}
	if s.Gauges["sim_vc_queue_depth_hwm_vc15"] != 9 {
		t.Error("out-of-range lane did not fold into the last gauge")
	}
	if len(s.Events) != 1 || s.Events[0].Kind != "sim_deadlock" {
		t.Error("ring event not in snapshot")
	}
}

// TestConcurrency hammers one registry from many goroutines; run under
// -race this is the data-race certification of the handle types.
func TestConcurrency(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	ring := r.Ring()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(w*per + i))
				h.Observe(int64(i))
				if i%100 == 0 {
					ring.Emit("tick", map[string]int64{"w": int64(w)})
				}
				r.Counter("c2").Inc() // registry map access race check
			}
		}(w)
	}
	wg.Wait()
	if c.Load() != workers*per {
		t.Errorf("counter = %d, want %d", c.Load(), workers*per)
	}
	if r.Counter("c2").Load() != workers*per {
		t.Errorf("c2 = %d, want %d", r.Counter("c2").Load(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if g.Load() != workers*per-1 {
		t.Errorf("gauge hwm = %d, want %d", g.Load(), workers*per-1)
	}
	_ = r.Snapshot()
}

func TestDistribBundle(t *testing.T) {
	var nilReg *Registry
	if dm := nilReg.Distrib(); dm != nil {
		t.Fatal("nil registry handed out a live distrib bundle")
	}
	var off DistribMetrics // zero bundle: every handle is a nil-safe no-op
	off.EpochsCommitted.Inc()
	off.PrepareNanos.Observe(5)
	off.Quarantined.Set(1)

	r := New()
	dm := r.Distrib()
	dm.EpochsCommitted.Inc()
	dm.DrainFallbacks.Add(2)
	dm.DeltaPermille.Observe(120)
	dm.Quarantined.Set(3)
	dm.FleetEpoch.Set(7)
	s := r.Snapshot()
	if s.Counters["distrib_epochs_committed_total"] != 1 ||
		s.Counters["distrib_drain_fallbacks_total"] != 2 {
		t.Error("distrib counters not in snapshot")
	}
	if s.Histograms["distrib_delta_permille"].Count != 1 {
		t.Error("distrib_delta_permille not in snapshot")
	}
	if s.Gauges["distrib_agents_quarantined"] != 3 || s.Gauges["distrib_fleet_epoch"] != 7 {
		t.Error("distrib gauges not in snapshot")
	}
}
