package flowsim

import (
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

// TestLayoutPin holds the structure that makes a run cheap, in the
// spirit of verify's TestStepsBound: the link buckets are laid out a
// logarithmic number of times however many recomputes a run makes, and
// every simulated flow is walked once. The results are held to digests
// recorded when every recompute still built its own buckets.
func TestLayoutPin(t *testing.T) {
	small := topology.Torus3D(4, 4, 1, 2, 1)
	smallRes := bfsTable(small.Net)

	t.Run("closed100k", func(t *testing.T) {
		tp := topology.Torus3D(8, 8, 8, 1, 1)
		const n = 100_000
		flows := workload.Generate(tp.Net.Terminals(), workload.Single(workload.Uniform{}, 4096), n, workload.Closed{}, 20)
		s, r := goldenRun(t, "pin/closed100k", tp.Net, bfsTable(tp.Net), flows, Config{Quantum: 1 << 16})
		if bound := 1 + bits.Len(n-1); s.layouts > bound {
			t.Errorf("%d layouts of %d flows, want at most %d", s.layouts, n, bound)
		}
		if r.Recomputes < 10*int64(s.layouts) {
			t.Errorf("%d recomputes on %d layouts: not an order of magnitude apart", r.Recomputes, s.layouts)
		}
		if want := int64(r.FlowsTotal - r.FlowsSkipped); s.walks != want {
			t.Errorf("%d table walks for %d simulated flows", s.walks, want)
		}
	})

	// Open loop: every layout but the last few groups flows that are
	// admitted many recomputes later.
	for _, c := range []struct {
		name    string
		mix     workload.Mix
		quantum int64
	}{
		// About eight flows active at a time, a recompute at nearly every
		// arrival and finish.
		{"pin/sparse", workload.Single(workload.Uniform{}, 4096), 64},
		// Three times the load the terminals can inject: thousands active
		// while thousands are still to arrive.
		{"pin/backlog", goldenMix, 1 << 15},
	} {
		t.Run(c.name, func(t *testing.T) {
			flows := workload.Generate(small.Net.Terminals(), c.mix, 6000, workload.Poisson{MeanGap: 512}, 21)
			s, r := goldenRun(t, c.name, small.Net, smallRes, flows, Config{Quantum: c.quantum})
			if s.layouts < 3 || r.Recomputes < 10*int64(s.layouts) {
				t.Errorf("%d layouts, %d recomputes: want several layouts, each serving many recomputes", s.layouts, r.Recomputes)
			}
		})
	}

	// A MaxTicks cut between two layouts: the run stops on buckets that
	// are part dead.
	t.Run("cut", func(t *testing.T) {
		m := goldenMixes[0]
		flows := workload.Generate(small.Net.Terminals(), m.mix, goldenFlows, workload.Poisson{MeanGap: m.gap}, 20)
		cfg := Config{Quantum: 4096, TenantNames: m.mix.TenantNames()}
		whole, _ := goldenRun(t, "uniform/poisson/q4096", small.Net, smallRes, flows, cfg)
		cfg.MaxTicks = m.cut
		part, r := goldenRun(t, "uniform/poisson/q4096/cut", small.Net, smallRes, flows, cfg)
		if !r.TimedOut || part.layouts < 2 || part.layouts >= whole.layouts {
			t.Errorf("cut run made %d layouts, whole run %d: want the cut after the second and before the last", part.layouts, whole.layouts)
		}
		if live, laid := part.unfinished(), len(part.order); 2*live < laid || live == laid {
			t.Errorf("cut with %d of %d laid-out flows unfinished: want some dead entries, under half", live, laid)
		}
	})
}

// TestPathArenaBuiltOnce: the path pass of a 20k-flow closed batch on a
// fresh run state allocates the path arena once, sized from the first
// walkSample flows — no more than a quarter above the 4 bytes a path
// channel takes — and a second pass of the same flows on the kept state
// allocates nothing.
func TestPathArenaBuiltOnce(t *testing.T) {
	tp := topology.Torus3D(4, 4, 2, 1, 1)
	res := bfsTable(tp.Net)
	flows := workload.Generate(tp.Net.Terminals(), workload.Single(workload.Uniform{}, 4096), 20_000, workload.Closed{}, 20)
	emptyRunStates()
	s := newSim(tp.Net, flows, Config{})
	pass := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.walkPaths(res)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := pass()
	channels := uint64(len(s.pathChan))
	if channels < 3*uint64(len(flows)) {
		t.Fatalf("vacuous fixture: %d path channels for %d flows", channels, len(flows))
	}
	perFlow := uint64(8*len(s.pathOff) + len(s.skipped))
	if got := cold - perFlow; got > 5*channels {
		t.Errorf("cold path pass allocated %d bytes for %d path channels, want at most %d", got, channels, 5*channels)
	}
	if warm := pass(); warm != 0 {
		t.Errorf("warm path pass allocated %d bytes, want none", warm)
	}
}
