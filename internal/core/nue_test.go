package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// routeAndVerify runs Nue and the full verifier.
func routeAndVerify(t *testing.T, tp *topology.Topology, dests []graph.NodeID, k int, opts Options) *verify.Report {
	t.Helper()
	res, err := New(opts).Route(tp.Net, dests, k)
	if err != nil {
		t.Fatalf("Nue.Route(%s, k=%d): %v", tp.Name, k, err)
	}
	if res.VCs > k {
		t.Fatalf("Nue used %d VCs, limit %d", res.VCs, k)
	}
	if got := verify.RequiredVCs(res); got > k {
		t.Fatalf("RequiredVCs = %d, limit %d", got, k)
	}
	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		t.Fatalf("verify(%s, k=%d): %v", tp.Name, k, err)
	}
	if !rep.DeadlockFree {
		t.Fatalf("not deadlock free (%s, k=%d)", tp.Name, k)
	}
	return rep
}

func TestNueRingShortcutAllK(t *testing.T) {
	// The paper's running example network, routed between all switches.
	tp := topology.RingWithShortcut()
	for _, k := range []int{1, 2, 3} {
		routeAndVerify(t, tp, tp.Net.Nodes(), k, DefaultOptions())
	}
}

func TestNueTorusTerminalsOneVC(t *testing.T) {
	// A torus with k=1 exercises heavy routing restrictions: topology-
	// agnostic shortest-path routing would deadlock, Nue must not.
	tp := topology.Torus3D(3, 3, 3, 2, 1)
	rep := routeAndVerify(t, tp, tp.Net.Terminals(), 1, DefaultOptions())
	want := 54 * 53 // all terminal pairs
	if rep.Pairs != want {
		t.Errorf("verified %d pairs, want %d", rep.Pairs, want)
	}
}

func TestNueTorusMultipleVCs(t *testing.T) {
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	for _, k := range []int{1, 2, 4} {
		routeAndVerify(t, tp, tp.Net.Terminals(), k, DefaultOptions())
	}
}

func TestNueFaultyTorusFig1(t *testing.T) {
	// Fig. 1's network: 4x4x3 torus, 4 terminals/switch, 1 failed switch.
	tp := topology.Torus3D(4, 4, 3, 4, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[1][2][0])
	for _, k := range []int{1, 2, 3, 4} {
		routeAndVerify(t, faulty, workingTerminals(faulty.Net), k, DefaultOptions())
	}
}

func workingTerminals(g *graph.Network) []graph.NodeID {
	var out []graph.NodeID
	for _, tm := range g.Terminals() {
		if g.Degree(tm) > 0 {
			out = append(out, tm)
		}
	}
	return out
}

func TestNueRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tp := topology.RandomTopology(rng, 30, 90, 2)
	for _, k := range []int{1, 2, 8} {
		routeAndVerify(t, tp, tp.Net.Terminals(), k, DefaultOptions())
	}
}

func TestNueKautz(t *testing.T) {
	// Kautz graphs are directed-flavored and notoriously cyclic; a strong
	// deadlock-freedom exercise at k=1.
	tp := topology.Kautz(3, 2, 1, 1)
	routeAndVerify(t, tp, tp.Net.Terminals(), 1, DefaultOptions())
}

func TestNueDragonfly(t *testing.T) {
	tp := topology.Dragonfly(4, 2, 2, 9)
	for _, k := range []int{1, 4} {
		routeAndVerify(t, tp, tp.Net.Terminals(), k, DefaultOptions())
	}
}

func TestNueWithoutBacktracking(t *testing.T) {
	// Disabling §4.6.2/4.6.3 must stay correct (more escape fallbacks).
	opts := DefaultOptions()
	opts.Backtracking = false
	tp := topology.Torus3D(3, 3, 3, 2, 1)
	routeAndVerify(t, tp, tp.Net.Terminals(), 1, opts)
}

func TestNueRandomRootAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.CentralRoot = false
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	routeAndVerify(t, tp, tp.Net.Terminals(), 2, opts)
}

func TestNuePartitionStrategies(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 3, 1)
	for _, s := range []partition.Strategy{partition.MultilevelKWay, partition.Random} {
		opts := DefaultOptions()
		opts.Partition = s
		routeAndVerify(t, tp, tp.Net.Terminals(), 4, opts)
	}
}

func TestNueDeterministicPerSeed(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	dests := tp.Net.Terminals()
	r1, err := New(DefaultOptions()).Route(tp.Net, dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(DefaultOptions()).Route(tp.Net, dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tp.Net.Switches() {
		for _, d := range dests {
			if r1.Table.Next(s, d) != r2.Table.Next(s, d) {
				t.Fatalf("non-deterministic table at (%d,%d)", s, d)
			}
		}
	}
}

func TestNueSwitchDestinations(t *testing.T) {
	// Nue supports routing toward switches too (management traffic).
	tp := topology.Ring(8, 1)
	all := tp.Net.Nodes()
	routeAndVerify(t, tp, all, 2, DefaultOptions())
}

func TestNueErrors(t *testing.T) {
	tp := topology.Ring(4, 1)
	if _, err := New(DefaultOptions()).Route(tp.Net, tp.Net.Terminals(), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(DefaultOptions()).Route(tp.Net, nil, 2); err == nil {
		t.Error("empty destination set accepted")
	}
}

func TestNueStatsExported(t *testing.T) {
	tp := topology.Torus3D(3, 3, 3, 1, 1)
	res, err := New(DefaultOptions()).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"escape_fallbacks", "islands_resolved", "cycle_searches", "blocked_edges", "escape_deps"} {
		if _, ok := res.Stats[key]; !ok {
			t.Errorf("missing stat %q", key)
		}
	}
	if res.Stats["escape_deps"] <= 0 {
		t.Error("escape_deps should be positive")
	}
}

// TestQuickNueAlwaysDeadlockFree is the repository's central property
// test: on arbitrary random connected topologies and arbitrary VC budgets,
// Nue must produce connected, loop-free, deadlock-free tables.
func TestQuickNueAlwaysDeadlockFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(18)
		links := n - 1 + rng.Intn(2*n)
		if max := n * (n - 1) / 2; links > max {
			links = max
		}
		tp := topology.RandomTopology(rng, n, links, 1+rng.Intn(2))
		k := 1 + rng.Intn(4)
		opts := DefaultOptions()
		opts.Seed = seed
		res, err := New(opts).Route(tp.Net, tp.Net.Terminals(), k)
		if err != nil {
			t.Logf("seed %d: route failed: %v", seed, err)
			return false
		}
		rep, err := verify.Check(tp.Net, res, nil)
		if err != nil {
			t.Logf("seed %d: verify failed: %v", seed, err)
			return false
		}
		return rep.DeadlockFree
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestNueCapsLayersAtLaneWidth: a budget above 256 VCs is capped at 256
// layers. Layer indices are bytes (DestLayer, the virtual lane), so a
// 257th layer would wrap onto layer 0 and share its dependency graph
// with a layer routed apart from it. All 512 terminals of the 8x8x8
// torus at 300 VCs give more than 256 parts without the cap.
func TestNueCapsLayersAtLaneWidth(t *testing.T) {
	net := topology.Torus3D(8, 8, 8, 1, 1).Net
	res, err := New(DefaultOptions()).Route(net, net.Terminals(), 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.VCs > 256 {
		t.Errorf("Nue used %d VCs, more than the 256 a lane can name", res.VCs)
	}
	if _, err := verify.Check(net, res, nil); err != nil {
		t.Errorf("verify: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 300}); err != nil {
		t.Errorf("oracle: %v", err)
	}
}
