package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// TestNaiveCycleSearchProducesIdenticalTables: the §4.6.1 ω-optimization
// is purely an acceleration — Nue's routing decisions must be bit-for-bit
// identical with and without it.
func TestNaiveCycleSearchProducesIdenticalTables(t *testing.T) {
	tp := topology.Torus3D(3, 3, 3, 2, 1)
	dests := tp.Net.Terminals()

	fast, err := New(DefaultOptions()).Route(tp.Net, dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NaiveCycleSearch = true
	slow, err := New(opts).Route(tp.Net, dests, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tp.Net.Switches() {
		for _, d := range dests {
			if fast.Table.Next(s, d) != slow.Table.Next(s, d) {
				t.Fatalf("tables differ at (%d,%d): %d vs %d",
					s, d, fast.Table.Next(s, d), slow.Table.Next(s, d))
			}
		}
	}
	if fast.Stats["blocked_edges"] != slow.Stats["blocked_edges"] {
		t.Errorf("blocked edges differ: %g vs %g",
			fast.Stats["blocked_edges"], slow.Stats["blocked_edges"])
	}
}

// TestEscapeFallbackStillVerifies forces heavy fallback use (no
// backtracking, one VC, dense cyclic topology) and checks Lemma 3.
func TestEscapeFallbackStillVerifies(t *testing.T) {
	tp := topology.Kautz(3, 3, 1, 1) // strongly cyclic, hard at k=1
	opts := DefaultOptions()
	opts.Backtracking = false
	res, err := New(opts).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeadlockFree {
		t.Fatal("not deadlock free")
	}
	t.Logf("escape fallbacks: %g of %d destinations", res.Stats["escape_fallbacks"], tp.Net.NumTerminals())
}

// TestNoShortcutsWithoutBacktracking: the §4.6.3 shortcuts need no switch
// of their own. Without backtracking, nodes settle in non-decreasing
// distance and every channel weight is at least 1, so a settled node is
// never offered a shorter distance and no shortcut is ever taken — on
// the no-backtracking fixtures of the tests above and of the ablation
// experiment.
func TestNoShortcutsWithoutBacktracking(t *testing.T) {
	for _, c := range []struct {
		tp  *topology.Topology
		vcs int
	}{
		{topology.Kautz(3, 3, 1, 1), 1},
		{topology.Torus3D(3, 3, 3, 2, 1), 1},
		{topology.RandomTopology(rand.New(rand.NewSource(0)), 100, 800, 4), 2},
	} {
		opts := DefaultOptions()
		opts.Backtracking = false
		res, err := New(opts).Route(c.tp.Net, c.tp.Net.Terminals(), c.vcs)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats["shortcut_takes"]; got != 0 {
			t.Errorf("%s: %g shortcuts taken without backtracking", c.tp.Name, got)
		}
	}
}

// TestBacktrackingReducesFallbacks: §4.6.2's motivation — with local
// backtracking enabled, the number of escape fallbacks must not increase.
func TestBacktrackingReducesFallbacks(t *testing.T) {
	tp := topology.Kautz(3, 3, 1, 1)
	dests := tp.Net.Terminals()

	with := DefaultOptions()
	withRes, err := New(with).Route(tp.Net, dests, 1)
	if err != nil {
		t.Fatal(err)
	}
	without := DefaultOptions()
	without.Backtracking = false
	withoutRes, err := New(without).Route(tp.Net, dests, 1)
	if err != nil {
		t.Fatal(err)
	}
	fbWith := withRes.Stats["escape_fallbacks"]
	fbWithout := withoutRes.Stats["escape_fallbacks"]
	if fbWith > fbWithout {
		t.Errorf("backtracking increased fallbacks: %g with vs %g without", fbWith, fbWithout)
	}
	t.Logf("fallbacks: %g with backtracking, %g without", fbWith, fbWithout)
}

// TestIslandsAndEscapeFallbackVerify covers the full §4.6.2 escalation on
// a single fixture that reliably produces it: routing restrictions wall
// off islands, local backtracking resolves most, the unsolvable remainder
// falls back to the escape paths per destination — and the final tables
// must still be connected and deadlock-free (the paper reports impasses
// as "a permanent problem for larger networks"; with balanced weights
// they emerge at ~100 switches).
func TestIslandsAndEscapeFallbackVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tp := topology.RandomTopology(rng, 100, 800, 4)
	opts := DefaultOptions()
	opts.Seed = 1
	res, err := New(opts).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("islands=%g fallbacks=%g", res.Stats["islands_resolved"], res.Stats["escape_fallbacks"])
	if res.Stats["islands_resolved"] == 0 {
		t.Error("fixture no longer triggers islands (local backtracking untested)")
	}
	if res.Stats["escape_fallbacks"] == 0 {
		t.Error("fixture no longer triggers escape fallbacks")
	}
	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeadlockFree {
		t.Fatal("not deadlock free")
	}
}

// TestDisconnectedDestinationsSkipped: orphaned terminals keep a table
// column but are not routed, and routing still succeeds.
func TestDisconnectedDestinationsSkipped(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[0][0][0])
	res, err := New(DefaultOptions()).Route(faulty.Net, faulty.Net.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var orphan graph.NodeID = graph.NoNode
	for _, tm := range faulty.Net.Terminals() {
		if faulty.Net.Degree(tm) == 0 {
			orphan = tm
			break
		}
	}
	if orphan == graph.NoNode {
		t.Fatal("no orphaned terminal in fixture")
	}
	for _, s := range faulty.Net.Switches() {
		if res.Table.Next(s, orphan) != graph.NoChannel {
			t.Errorf("switch %d has a route toward orphaned terminal %d", s, orphan)
		}
	}
	if _, err := verify.Check(faulty.Net, res, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBacktrackUturnRerouteRejected is the regression test for a crash
// found by the Fig. 11 sweep: local backtracking proposed rerouting a node
// over an alternative channel whose tail was one of the node's own tree
// children — a u-turn dependency that does not exist in the complete CDG.
// The reroute must be rejected, not panic. The fixture is the exact
// 7x7x7 faulty torus (trial 15 of the sweep) that triggered it.
func TestBacktrackUturnRerouteRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	tp := topology.Torus3D(7, 7, 7, 4, 1)
	rng := rand.New(rand.NewSource(1*1_000_003 + 15))
	faulty, _ := topology.InjectLinkFailures(tp, rng, 0.01)
	var dests []graph.NodeID
	for _, tm := range faulty.Net.Terminals() {
		if faulty.Net.Degree(tm) > 0 {
			dests = append(dests, tm)
		}
	}
	opts := DefaultOptions()
	opts.Seed = 1
	res, err := New(opts).Route(faulty.Net, dests, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Check(faulty.Net, res, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMatchesSerial: concurrent layer routing must be
// bit-identical to the serial run (layers are fully independent).
func TestParallelMatchesSerial(t *testing.T) {
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	dests := tp.Net.Terminals()
	par := DefaultOptions()
	par.Workers = 8
	ser := DefaultOptions()
	ser.Workers = 1
	a, err := New(par).Route(tp.Net, dests, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(ser).Route(tp.Net, dests, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tp.Net.Switches() {
		for _, d := range dests {
			if a.Table.Next(s, d) != b.Table.Next(s, d) {
				t.Fatalf("tables differ at (%d,%d)", s, d)
			}
		}
	}
	for i := range a.DestLayer {
		if a.DestLayer[i] != b.DestLayer[i] {
			t.Fatalf("layer assignment differs at dest %d", i)
		}
	}
	for k, v := range a.Stats {
		if b.Stats[k] != v {
			t.Errorf("stat %s differs: %g vs %g", k, v, b.Stats[k])
		}
	}
}
