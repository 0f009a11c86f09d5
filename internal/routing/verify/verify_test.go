package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/topology"
)

// clockwiseRing builds the canonical deadlock example: every switch of a
// ring forwards clockwise toward all destinations (unrestricted minimal
// routing on a ring induces a cyclic CDG).
func clockwiseRing(n int) (*topology.Topology, *routing.Result) {
	tp := topology.Ring(n, 1)
	g := tp.Net
	dests := g.Terminals()
	tbl := routing.NewTable(g, dests)
	for _, d := range dests {
		att := g.TerminalSwitch(d)
		for _, s := range g.Switches() {
			if s == att {
				tbl.Set(s, d, g.FindChannel(s, d))
			} else {
				tbl.Set(s, d, g.FindChannel(s, (s+1)%graph.NodeID(n)))
			}
		}
	}
	return tp, &routing.Result{Algorithm: "clockwise", Table: tbl, VCs: 1}
}

func TestVerifierDetectsRingDeadlock(t *testing.T) {
	tp, res := clockwiseRing(4)
	rep, err := Check(tp.Net, res, nil)
	if err == nil {
		t.Fatal("verifier accepted a deadlock-prone clockwise ring")
	}
	if rep.DeadlockFree {
		t.Error("report claims deadlock-free")
	}
	if len(rep.CyclicVLs) == 0 {
		t.Error("no cyclic VL reported")
	}
}

// TestCyclicVLsCountLanesDownstream: CyclicVLs names the lanes of every
// vertex Kahn's algorithm cannot remove — those on a cycle and those
// downstream of one. On the clockwise ring with deliveries moved to VL 1
// by an SL2VL mapping, the cycle is on VL 0 and the deliveries it feeds,
// vertices no dependency leaves, are on VL 1.
func TestCyclicVLsCountLanesDownstream(t *testing.T) {
	tp, res := clockwiseRing(4)
	res.VCs = 2
	res.SLToVL = func(_ uint8, c graph.ChannelID) uint8 {
		if tp.Net.IsTerminal(tp.Net.Channel(c).To) {
			return 1
		}
		return 0
	}
	rep, err := Check(tp.Net, res, nil)
	if err == nil || fmt.Sprint(rep.CyclicVLs) != "[0 1]" {
		t.Fatalf("CyclicVLs = %v (%v), want [0 1]", rep.CyclicVLs, err)
	}
}

func TestVerifierDetectsMissingRoute(t *testing.T) {
	tp := topology.Ring(4, 1)
	g := tp.Net
	res := &routing.Result{
		Algorithm: "empty",
		Table:     routing.NewTable(g, g.Terminals()),
		VCs:       1,
	}
	if _, err := Check(g, res, nil); err == nil {
		t.Fatal("verifier accepted empty tables")
	}
}

func TestVerifierAcceptsTreeRouting(t *testing.T) {
	// Routing along a spanning tree is always deadlock-free.
	tp := topology.Torus3D(3, 3, 1, 2, 1)
	g := tp.Net
	tree := bfs.SpanningTree(g, 0)
	dests := g.Terminals()
	tbl := routing.NewTable(g, dests)
	for _, d := range dests {
		for _, s := range g.Switches() {
			p := tree.TreePath(s, d)
			if len(p) > 0 {
				tbl.Set(s, d, p[0])
			}
		}
	}
	res := &routing.Result{Algorithm: "tree", Table: tbl, VCs: 1}
	rep, err := Check(g, res, nil)
	if err != nil {
		t.Fatalf("tree routing rejected: %v", err)
	}
	if !rep.DeadlockFree {
		t.Error("tree routing flagged as deadlocking")
	}
	if rep.Pairs != len(dests)*(len(dests)-1) {
		t.Errorf("pairs = %d, want %d", rep.Pairs, len(dests)*(len(dests)-1))
	}
}

func TestVerifierLayerSplitMasksCycle(t *testing.T) {
	// The clockwise ring becomes deadlock-free if each destination gets
	// its own virtual layer (4 destinations, 4 layers): each layer's CDG
	// is a simple path.
	tp, res := clockwiseRing(4)
	res.VCs = 4
	res.DestLayer = []uint8{0, 1, 2, 3}
	rep, err := Check(tp.Net, res, nil)
	if err != nil {
		t.Fatalf("per-destination layering rejected: %v", err)
	}
	if !rep.DeadlockFree {
		t.Error("layered clockwise ring flagged as deadlocking")
	}
}

func TestRequiredVCs(t *testing.T) {
	tp, res := clockwiseRing(4)
	_ = tp
	if got := RequiredVCs(res); got != 1 {
		t.Errorf("RequiredVCs(single) = %d, want 1", got)
	}
	res.DestLayer = []uint8{0, 2, 1, 2}
	if got := RequiredVCs(res); got != 3 {
		t.Errorf("RequiredVCs(dest) = %d, want 3", got)
	}
}

func TestInducedCDGDepCounts(t *testing.T) {
	// On a 3-switch path a->b->c with one terminal each, traffic both ways
	// induces symmetric dependencies.
	b := graph.NewBuilder()
	s0 := b.AddSwitch("")
	s1 := b.AddSwitch("")
	s2 := b.AddSwitch("")
	b.AddLink(s0, s1)
	b.AddLink(s1, s2)
	t0 := b.AddTerminal("")
	b.AddLink(t0, s0)
	t2 := b.AddTerminal("")
	b.AddLink(t2, s2)
	g := b.MustBuild()
	dests := []graph.NodeID{t0, t2}
	tbl := routing.NewTable(g, dests)
	tbl.Set(s0, t0, g.FindChannel(s0, t0))
	tbl.Set(s1, t0, g.FindChannel(s1, s0))
	tbl.Set(s2, t0, g.FindChannel(s2, s1))
	tbl.Set(s0, t2, g.FindChannel(s0, s1))
	tbl.Set(s1, t2, g.FindChannel(s1, s2))
	tbl.Set(s2, t2, g.FindChannel(s2, t2))
	res := &routing.Result{Table: tbl, VCs: 1}
	rep, err := Check(g, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Path t2->t0: (t2,s2)(s2,s1)(s1,s0)(s0,t0): 3 deps; same mirrored: 6.
	if rep.Deps != 6 {
		t.Errorf("deps = %d, want 6", rep.Deps)
	}
	if rep.MaxHops != 4 {
		t.Errorf("MaxHops = %d, want 4", rep.MaxHops)
	}
}

func TestVerifierChecksPairPathOverrides(t *testing.T) {
	tp := topology.Ring(4, 1)
	g := tp.Net
	dests := g.Terminals()
	tbl := routing.NewTable(g, dests)
	// Valid destination-based tables (tree routing via switch 0).
	tree := bfs.SpanningTree(g, 0)
	for _, d := range dests {
		for _, s := range g.Switches() {
			if p := tree.TreePath(s, d); len(p) > 0 {
				tbl.Set(s, d, p[0])
			}
		}
	}
	res := &routing.Result{Table: tbl, VCs: 1}
	// A broken override: discontinuous path.
	res.PairPath = map[uint64][]graph.ChannelID{
		routing.PairKey(dests[0], dests[2]): {g.FindChannel(dests[0], 0), g.FindChannel(2, 3)},
	}
	if _, err := Check(g, res, nil); err == nil {
		t.Error("discontinuous PairPath accepted")
	}
	// A correct override must pass.
	full := append([]graph.ChannelID{g.FindChannel(dests[0], 0)}, tree.TreePath(0, dests[2])...)
	res.PairPath[routing.PairKey(dests[0], dests[2])] = full
	if _, err := Check(g, res, nil); err != nil {
		t.Errorf("valid PairPath rejected: %v", err)
	}
}

func TestVerifierRejectsRevisitingOverride(t *testing.T) {
	tp := topology.Ring(4, 1)
	g := tp.Net
	dests := g.Terminals()
	tbl := routing.NewTable(g, dests)
	tree := bfs.SpanningTree(g, 0)
	for _, d := range dests {
		for _, s := range g.Switches() {
			if p := tree.TreePath(s, d); len(p) > 0 {
				tbl.Set(s, d, p[0])
			}
		}
	}
	res := &routing.Result{Table: tbl, VCs: 1}
	// Path that ping-pongs: t0 -> s0 -> s1 -> s0 ... revisits s0.
	res.PairPath = map[uint64][]graph.ChannelID{
		routing.PairKey(dests[0], dests[1]): {
			g.FindChannel(dests[0], 0),
			g.FindChannel(0, 1),
			g.FindChannel(1, 0),
			g.FindChannel(0, 1),
			g.FindChannel(1, dests[1]),
		},
	}
	if _, err := Check(g, res, nil); err == nil {
		t.Error("node-revisiting PairPath accepted")
	}
}

// TestOverBudgetLaneRefused: a destination assigned the lane one past the
// VC budget is a violation for both checkers; the verifier used to fold it
// onto the last lane and judge only the folded graph.
func TestOverBudgetLaneRefused(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	res, err := core.New(core.DefaultOptions()).Route(tp.Net, tp.Net.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Check(tp.Net, res, nil); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	res.DestLayer[0] = uint8(res.VCs)
	if _, err := Check(tp.Net, res, nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("occupies VL %d", res.VCs)) {
		t.Errorf("verify.Check: %v, want the over-budget lane named", err)
	}
	var be *oracle.BudgetError
	if _, err := oracle.Certify(tp.Net, res, oracle.Options{MaxVCs: 2}); !errors.As(err, &be) {
		t.Errorf("oracle.Certify: %v, want a BudgetError", err)
	}
}
