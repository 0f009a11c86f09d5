package flowsim

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/freelist"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

// emptyRunStates drops every kept run state, so that the next Run starts
// from freshly made arrays.
func emptyRunStates() {
	runStates = freelist.List[sim]{}
}

type reuseCase struct {
	name  string
	net   *graph.Network
	res   *routing.Result
	flows []workload.Flow
	cfg   Config
}

// reuseCases are run back to back on one run state: a large case, a
// smaller one on a smaller torus (cut mid-run), one that aborts with a
// WalkError after its arena is sized, and the small case again.
func reuseCases(t *testing.T) []reuseCase {
	t.Helper()
	big := topology.Torus3D(4, 4, 2, 1, 1)
	small := topology.Torus3D(4, 4, 1, 2, 1)
	smallRes := bfsTable(small.Net)
	bigFlows := workload.Generate(big.Net.Terminals(), goldenMix, 20_000, workload.Closed{}, 20)
	// Self-loop flows are skipped: a kept skipped mark would drop the
	// small case's flows at the same indices.
	for i := 0; i < len(bigFlows); i += 97 {
		bigFlows[i].Dst = bigFlows[i].Src
	}
	smallFlows := workload.Generate(small.Net.Terminals(), goldenMix, 2000, workload.Poisson{MeanGap: 4096}, 21)
	smallCfg := Config{Quantum: 4096, MaxTicks: 4_000_000, TenantNames: goldenMix.TenantNames()}

	// An empty path override for the first pair that no flow before it
	// has, past walkSample: the walk fails after the arena is sized.
	seen := map[uint64]bool{}
	broken := &routing.Result{Algorithm: smallRes.Algorithm, Table: smallRes.Table}
	for i, f := range smallFlows {
		key := routing.PairKey(f.Src, f.Dst)
		if i > walkSample && !seen[key] && f.Src != f.Dst {
			broken.PairPath = map[uint64][]graph.ChannelID{key: {}}
			break
		}
		seen[key] = true
	}

	return []reuseCase{
		{"big", big.Net, bfsTable(big.Net), bigFlows, Config{Quantum: 1 << 15, TenantNames: goldenMix.TenantNames()}},
		{"small", small.Net, smallRes, smallFlows, smallCfg},
		{"walk error", small.Net, broken, smallFlows, smallCfg},
		{"small again", small.Net, smallRes, smallFlows, smallCfg},
	}
}

type runOutcome struct {
	r   Result
	err error
}

func runCase(c reuseCase) runOutcome {
	r, err := Run(c.net, c.res, c.flows, c.cfg)
	return runOutcome{r, err}
}

// TestRunStateReuse: a run on a kept state — one left by a larger run, a
// smaller one, or one that aborted mid-walk — returns exactly what the
// same run returns on freshly made arrays, sequentially and from four
// goroutines at once.
func TestRunStateReuse(t *testing.T) {
	cases := reuseCases(t)
	want := make([]runOutcome, len(cases))
	for i, c := range cases {
		emptyRunStates()
		want[i] = runCase(c)
	}
	if we, ok := want[2].err.(*WalkError); !ok || we.FlowIndex <= walkSample {
		t.Fatalf("broken table: got %v, want a *WalkError past flow %d", want[2].err, walkSample)
	}
	if r := want[1].r; !r.TimedOut || r.FlowsFinished == 0 || r.FlowsUnfinished == 0 {
		t.Fatalf("vacuous fixture: the small case is not cut mid-run")
	}
	check := func(t *testing.T, got []runOutcome) {
		for i, c := range cases {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s on a reused state differs from a fresh run", c.name)
			}
		}
	}

	t.Run("sequential", func(t *testing.T) {
		emptyRunStates()
		got := make([]runOutcome, len(cases))
		for i, c := range cases {
			got[i] = runCase(c)
		}
		check(t, got)
	})

	// What a run reads of its arrays before writing them, on a state kept
	// from every case and on a fresh one.
	t.Run("arrays", func(t *testing.T) {
		prepared := func(c reuseCase) *sim {
			s := newSim(c.net, c.flows, c.cfg)
			if err := s.walkPaths(c.res); err != nil {
				t.Fatal(err)
			}
			s.initState()
			return s
		}
		for _, c := range []reuseCase{cases[1], cases[0]} {
			emptyRunStates()
			fresh := prepared(c)
			for _, c := range cases {
				runCase(c)
			}
			kept := prepared(c)
			for _, a := range []struct {
				name        string
				fresh, kept any
			}{
				{"skipped", fresh.skipped, kept.skipped},
				{"rem", fresh.rem, kept.rem},
				{"rate", fresh.rate, kept.rate},
				{"finishAt", fresh.finishAt, kept.finishAt},
				{"finished", fresh.finished, kept.finished},
				{"state", fresh.state, kept.state},
				{"order", fresh.order, kept.order},
				{"linkLive", fresh.linkLive, kept.linkLive},
			} {
				if !reflect.DeepEqual(a.fresh, a.kept) {
					t.Errorf("%s: kept %s reads differently from a fresh one", c.name, a.name)
				}
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		emptyRunStates()
		got := make([][]runOutcome, 4)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = make([]runOutcome, len(cases))
				for i, c := range cases {
					got[g][i] = runCase(c)
				}
			}()
		}
		wg.Wait()
		for _, g := range got {
			check(t, g)
		}
	})
}

// TestRunAllocs: a warm Run allocates what its Result holds — LinkBytes
// and LinkUtil, the PerTenant rows and their names — and a small
// constant more, in a bounded number of mallocs.
func TestRunAllocs(t *testing.T) {
	tp := topology.Torus3D(4, 4, 2, 1, 1)
	res := bfsTable(tp.Net)
	flows := workload.Generate(tp.Net.Terminals(), goldenMix, 20_000, workload.Closed{}, 20)
	cfg := Config{Quantum: 1 << 15}
	run := func() Result {
		r, err := Run(tp.Net, res, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run() // warm the kept state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r = run()
	runtime.ReadMemStats(&after)

	owned := uint64(len(r.LinkBytes)+len(r.LinkUtil))*8 + uint64(len(r.PerTenant))*uint64(unsafe.Sizeof(TenantStats{}))
	for _, ts := range r.PerTenant {
		owned += uint64(len(ts.Name))
	}
	const slack = 4096
	if got := after.TotalAlloc - before.TotalAlloc; got > owned+slack {
		t.Errorf("warm run allocated %d bytes, its Result holds %d (+%d slack)", got, owned, slack)
	}
	if got := after.Mallocs - before.Mallocs; got > 40 {
		t.Errorf("warm run made %d mallocs, want at most 40", got)
	}
}
