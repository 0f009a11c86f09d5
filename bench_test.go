package repro

// One benchmark per paper table/figure (scaled to benchmark-friendly
// sizes; cmd/nuebench regenerates the full-size tables) plus the ablation
// benches for the design choices called out in DESIGN.md §7.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/centrality"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/lash"
	"repro/internal/routing/updn"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fig1Net returns the Fig. 1 network: 4x4x3 torus, 4 terminals/switch,
// one failed switch.
func fig1Net() *Topology {
	tp := topology.Torus3D(4, 4, 3, 4, 1)
	return topology.FailSwitch(tp, tp.Torus.SwitchAt[1][2][0])
}

func routeOrSkip(b *testing.B, eng Engine, tp *Topology, vcs int) *RoutingResult {
	b.Helper()
	res, err := eng.Route(tp.Net, tp.Net.Terminals(), vcs)
	if err != nil {
		b.Skipf("%s inapplicable: %v", eng.Name(), err)
	}
	return res
}

// --- Fig. 1: routing the faulty torus under a 4 VC budget ---

func BenchmarkFig1RouteNue(b *testing.B) {
	tp := fig1Net()
	for i := 0; i < b.N; i++ {
		if _, err := RouteNue(tp.Net, tp.Net.Terminals(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1RouteUpdn(b *testing.B) {
	tp := fig1Net()
	for i := 0; i < b.N; i++ {
		routeOrSkip(b, updn.Engine{}, tp, 4)
	}
}

func BenchmarkFig1RouteLASH(b *testing.B) {
	tp := fig1Net()
	for i := 0; i < b.N; i++ {
		routeOrSkip(b, lash.Engine{}, tp, 4)
	}
}

func BenchmarkFig1RouteTorus2QoS(b *testing.B) {
	tp := fig1Net()
	for i := 0; i < b.N; i++ {
		routeOrSkip(b, dor.Engine{Meta: tp.Torus, Datelines: true}, tp, 4)
	}
}

// BenchmarkFig1Simulate measures the all-to-all flit simulation on the
// Nue-routed faulty torus (reduced phases).
func BenchmarkFig1Simulate(b *testing.B) {
	tp := fig1Net()
	res, err := RouteNue(tp.Net, tp.Net.Terminals(), 4)
	if err != nil {
		b.Fatal(err)
	}
	msgs := AllToAllShift(tp.Net.Terminals(), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Simulate(tp.Net, res, msgs, sim.PaperConfig())
		if err != nil || r.Deadlocked {
			b.Fatalf("sim failed: %v %+v", err, r)
		}
	}
}

// --- Fig. 9: edge forwarding index on a random topology ---

func BenchmarkFig9GammaNue(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tp := topology.RandomTopology(rng, 60, 240, 4)
	res, err := RouteNue(tp.Net, tp.Net.Terminals(), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.EdgeForwardingIndex(tp.Net, res, nil)
	}
}

func BenchmarkFig9RouteRandomNue8VC(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tp := topology.RandomTopology(rng, 60, 240, 4)
	for i := 0; i < b.N; i++ {
		if _, err := RouteNue(tp.Net, tp.Net.Terminals(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9RouteRandomDFSSSP(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tp := topology.RandomTopology(rng, 60, 240, 4)
	for i := 0; i < b.N; i++ {
		routeOrSkip(b, dfsssp.Engine{}, tp, 8)
	}
}

// --- Table 1 / Fig. 10: generation and routing of the seven topologies ---

func BenchmarkTable1Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1Topologies(1)
	}
}

func benchFig10Topology(b *testing.B, tp *Topology) {
	b.Helper()
	dests := tp.Net.Terminals()
	res, err := RouteNue(tp.Net, dests, 8)
	if err != nil {
		b.Fatal(err)
	}
	msgs := AllToAllShift(dests, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Simulate(tp.Net, res, msgs, sim.DefaultConfig())
		if err != nil || r.Deadlocked {
			b.Fatalf("sim failed: %v %+v", err, r)
		}
	}
}

func BenchmarkFig10TorusNue(b *testing.B)  { benchFig10Topology(b, topology.Torus3D(4, 4, 3, 4, 1)) }
func BenchmarkFig10KautzNue(b *testing.B)  { benchFig10Topology(b, topology.Kautz(3, 2, 4, 1)) }
func BenchmarkFig10FtreeNue(b *testing.B)  { benchFig10Topology(b, topology.KAryNTree(4, 3, 4)) }
func BenchmarkFig10DragonNue(b *testing.B) { benchFig10Topology(b, topology.Dragonfly(6, 4, 3, 10)) }

// --- Fig. 11: routing runtime on a faulty torus per engine ---

func benchFig11(b *testing.B, eng Engine) {
	b.Helper()
	tp := topology.Torus3D(4, 4, 4, 4, 1)
	faulty, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(11)), 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeOrSkip(b, eng, faulty, 8)
	}
}

func BenchmarkFig11Nue(b *testing.B)    { benchFig11(b, NewNue(DefaultNueOptions())) }
func BenchmarkFig11DFSSSP(b *testing.B) { benchFig11(b, dfsssp.Engine{}) }
func BenchmarkFig11LASH(b *testing.B)   { benchFig11(b, lash.Engine{}) }
func BenchmarkFig11Torus2QoS(b *testing.B) {
	tp := topology.Torus3D(4, 4, 4, 4, 1)
	faulty, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(11)), 0.01)
	eng := dor.Engine{Meta: faulty.Torus, Datelines: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeOrSkip(b, eng, faulty, 8)
	}
}

// --- Parallel engine: layer fan-out and sharded betweenness ---

// BenchmarkBetweenness measures Brandes betweenness on an 8-ary 3-D
// torus's switch graph — the per-layer root-selection cost the parallel
// engine shards. Sub-benchmarks sweep the worker count; every count
// produces bit-identical centrality scores (fixed 64-source shards with
// ordered commits), so the sweep measures speedup only.
func BenchmarkBetweenness(b *testing.B) {
	tp := topology.Torus3D(8, 8, 8, 1, 1)
	sub := tp.Net.Switches()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				centrality.BetweennessN(tp.Net, sub, workers)
			}
		})
	}
}

// BenchmarkRouteParallel routes an 8-ary 3-D torus under a 4 VC budget
// with the layer pool bounded to 1, 4 and 8 workers. The forwarding
// tables are bit-identical across the sweep (see
// core.TestDeterministicAcrossWorkers); only wall-clock may differ.
// Telemetry is off.
func BenchmarkRouteParallel(b *testing.B) {
	benchRouteParallel(b, false)
}

// BenchmarkRouteParallelTelemetry is the identical sweep with a live
// telemetry registry attached. The contract under test: instrumentation
// adds one aggregated atomic publish per layer plus phase timestamps, so
// the delta vs. BenchmarkRouteParallel stays in the noise.
func BenchmarkRouteParallelTelemetry(b *testing.B) {
	benchRouteParallel(b, true)
}

func benchRouteParallel(b *testing.B, withTelemetry bool) {
	b.Helper()
	tp := topology.Torus3D(8, 8, 8, 1, 1)
	dests := tp.Net.Terminals()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := DefaultNueOptions()
			opts.Seed = 1
			opts.Workers = workers
			if withTelemetry {
				opts.Telemetry = NewTelemetry().Engine()
			}
			eng := core.New(opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Route(tp.Net, dests, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Large-scale tier (PR 8): 4k-32k switches, the flat core's regime ---

// BenchmarkRouteLarge routes the large-scale tier classes
// (experiments.LargeClasses: three paper families at 4,096-32,768
// switches) against the tier's deterministic 512-destination stride
// sample. The flat routing core — CSR adjacency, dial queue, pooled CDG
// arenas — exists for exactly this regime. Worker counts never change
// the routes (see TestFlatCoreEquivalence), only wall-clock.
func BenchmarkRouteLarge(b *testing.B) {
	sample := experiments.DefaultLargeConfig().DestSample
	for _, tc := range []struct {
		class   string
		workers int
	}{
		{"torus-16x16x16", 1},
		{"torus-16x16x16", 8},
		{"dragonfly-a16g256", 1},
		{"ftree-16ary4", 1},
		{"torus-32x32x32", 1},
	} {
		b.Run(fmt.Sprintf("%s/workers=%d", tc.class, tc.workers), func(b *testing.B) {
			var cl experiments.LargeClass
			for _, c := range experiments.LargeClasses() {
				if c.Name == tc.class {
					cl = c
				}
			}
			if cl.Build == nil {
				b.Fatalf("unknown large class %q", tc.class)
			}
			tp := cl.Build()
			dests := experiments.SampleSwitches(tp.Net, sample)
			opts := DefaultNueOptions()
			opts.Seed = 1
			opts.Workers = tc.workers
			eng := core.New(opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Route(tp.Net, dests, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Online fabric manager: incremental repair vs full recompute ---

// fabricChurnBatchSize is ~2% of the duplex switch-switch links.
func fabricChurnBatchSize(m *FabricManager) int {
	nLinks := 0
	net := m.View().Net
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(graph.ChannelID(c))
		if net.IsSwitch(ch.From) && net.IsSwitch(ch.To) {
			nLinks++
		}
	}
	n := nLinks / 100 // 2% of nLinks/2 duplex links
	if n < 1 {
		n = 1
	}
	return n
}

// benchFabricChurn fails ~2% of a 4x4x4 torus's links event by event and
// restores them, reporting how many forwarding-table entries each event
// changed and how many destinations it re-routed. Failure sites rotate
// per iteration (drawn from a fixed-seed stream) so repairs cannot settle
// into routes that avoid a static failure set; the topology evolution —
// and hence the event stream — is identical across the two modes.
func benchFabricChurn(b *testing.B, full bool) {
	b.Helper()
	tp := topology.Torus3D(4, 4, 4, 1, 1)
	m, err := NewFabricManager(tp, FabricOptions{MaxVCs: 4, Seed: 1, FullRecompute: full})
	if err != nil {
		b.Fatal(err)
	}
	batch := fabricChurnBatchSize(m)
	rng := rand.New(rand.NewSource(21))
	var entryDelta, repaired, events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs := make([]FabricEvent, 0, batch)
		for len(evs) < batch {
			ev, ok := m.RandomEvent(rng, 0)
			if !ok {
				b.Fatal("no churn event possible")
			}
			evs = append(evs, ev)
			rep, err := m.Apply(ev)
			if err != nil {
				b.Fatal(err)
			}
			entryDelta += int64(rep.Delta.Changed + rep.Delta.Added + rep.Delta.Removed)
			repaired += int64(rep.RepairedDests)
			events++
		}
		for _, ev := range evs {
			if _, err := m.Apply(FabricEvent{Kind: LinkJoin, Link: ev.Link}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(entryDelta)/float64(events), "entries-changed/event")
	b.ReportMetric(float64(repaired)/float64(events), "dests-repaired/event")
}

// BenchmarkChurnIncrementalRepair measures the fabric manager's
// incremental repair on a 4x4x4 torus under 2% link failures;
// BenchmarkChurnFullRecompute is the same event stream re-routing the
// whole fabric per event (RouteNue from scratch), the paper-baseline a
// subnet manager without incremental repair would run.
func BenchmarkChurnIncrementalRepair(b *testing.B) { benchFabricChurn(b, false) }

func BenchmarkChurnFullRecompute(b *testing.B) { benchFabricChurn(b, true) }

// --- Forwarding-plane distribution: LFT compile + delta encode ---

// distribBench lazily routes the RouteParallel fabric (8-ary 3-D torus,
// 512 switches) once and applies one route-changing churn event,
// yielding the two adjacent epochs the distribution benchmarks compile
// and delta-encode. Setup is shared so the expensive initial routing is
// paid once per benchmark binary.
var distribBench struct {
	once     sync.Once
	old, cur *fabric.Snapshot
	err      error
}

func distribBenchEpochs(b *testing.B) (*fabric.Snapshot, *fabric.Snapshot) {
	b.Helper()
	distribBench.once.Do(func() {
		tp := topology.Torus3D(8, 8, 8, 1, 1)
		m, err := NewFabricManager(tp, FabricOptions{MaxVCs: 4, Seed: 1})
		if err != nil {
			distribBench.err = err
			return
		}
		old := m.View()
		rng := rand.New(rand.NewSource(17))
		for {
			ev, ok := m.RandomEvent(rng, 0)
			if !ok {
				distribBench.err = fmt.Errorf("no churn event possible")
				return
			}
			rep, err := m.Apply(ev)
			if err != nil {
				distribBench.err = err
				return
			}
			if !rep.NoOp && rep.Delta.Changed+rep.Delta.Added+rep.Delta.Removed > 0 {
				break
			}
		}
		distribBench.old, distribBench.cur = old, m.View()
	})
	if distribBench.err != nil {
		b.Fatal(distribBench.err)
	}
	return distribBench.old, distribBench.cur
}

// BenchmarkLFTCompile measures lowering one routing epoch into
// per-switch linear forwarding tables with row checksums and
// pre-encoded wire payloads (distrib.Compile) — the per-epoch cost the
// distribution source pays before any byte hits the network.
func BenchmarkLFTCompile(b *testing.B) {
	_, cur := distribBenchEpochs(b)
	e := distrib.Epoch{Seq: cur.Epoch, Net: cur.Net, Result: cur.Result}
	b.ReportAllocs()
	b.ResetTimer()
	var c *distrib.CompiledEpoch
	for i := 0; i < b.N; i++ {
		c = distrib.Compile(e)
	}
	b.ReportMetric(float64(c.Rows*c.Cols), "entries")
}

// BenchmarkDeltaEncode measures diffing two adjacent epochs' tables and
// binary-encoding the result (routing.EntryDiff + routing.EncodeDelta)
// — the per-epoch, per-push cost of delta distribution.
func BenchmarkDeltaEncode(b *testing.B) {
	old, cur := distribBenchEpochs(b)
	oldT, curT := old.Result.Table, cur.Result.Table
	rows, cols := curT.Shape()
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	var n int
	for i := 0; i < b.N; i++ {
		entries, _ := routing.EntryDiff(oldT, curT)
		buf = routing.EncodeDelta(buf[:0], rows, cols, entries)
		n = len(entries)
	}
	b.ReportMetric(float64(n), "changed-entries")
	b.ReportMetric(float64(len(buf)), "delta-bytes")
}

// --- Ablations (DESIGN.md §7) ---

func benchNueWith(b *testing.B, mutate func(*NueOptions)) {
	b.Helper()
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	opts := DefaultNueOptions()
	mutate(&opts)
	eng := core.New(opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Route(tp.Net, tp.Net.Terminals(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCycleSearchOmega vs ...Naive: the §4.6.1 ω-numbering
// against a full acyclicity check per edge use.
func BenchmarkAblationCycleSearchOmega(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) {})
}

func BenchmarkAblationCycleSearchNaive(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) { o.NaiveCycleSearch = true })
}

// BenchmarkAblationRootCentral vs ...Random: betweenness-central escape
// roots against arbitrary roots (§4.3).
func BenchmarkAblationRootCentral(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) { o.CentralRoot = true })
}

func BenchmarkAblationRootRandom(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) { o.CentralRoot = false })
}

// BenchmarkAblationPartition compares the partitioning strategies (§4.5).
func BenchmarkAblationPartitionKWay(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) { o.Partition = partition.MultilevelKWay })
}

func BenchmarkAblationPartitionRandom(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) { o.Partition = partition.Random })
}

// BenchmarkAblationBacktracking on/off (§4.6.2/4.6.3).
func BenchmarkAblationBacktrackingOn(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) { o.Backtracking = true; o.Shortcuts = true })
}

func BenchmarkAblationBacktrackingOff(b *testing.B) {
	benchNueWith(b, func(o *NueOptions) { o.Backtracking = false; o.Shortcuts = false })
}
