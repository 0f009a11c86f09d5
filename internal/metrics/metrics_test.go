package metrics

import (
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/minhop"
	"repro/internal/topology"
)

// lineNet builds 3 switches in a row with one terminal each.
func lineNet(t *testing.T) (*graph.Network, *routing.Result) {
	t.Helper()
	b := graph.NewBuilder()
	s := []graph.NodeID{b.AddSwitch(""), b.AddSwitch(""), b.AddSwitch("")}
	b.AddLink(s[0], s[1])
	b.AddLink(s[1], s[2])
	var terms []graph.NodeID
	for _, sw := range s {
		tm := b.AddTerminal("")
		b.AddLink(tm, sw)
		terms = append(terms, tm)
	}
	g := b.MustBuild()
	res, err := (minhop.MinHop{}).Route(g, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestEdgeForwardingIndexLine(t *testing.T) {
	g, res := lineNet(t)
	gamma := EdgeForwardingIndex(g, res, nil)
	// Inter-switch channels: (s0,s1),(s1,s0),(s1,s2),(s2,s1).
	// Paths crossing (s0,s1): t0->t1 and t0->t2: gamma = 2.
	if len(gamma.PerChannel) != 4 {
		t.Fatalf("PerChannel = %d entries, want 4", len(gamma.PerChannel))
	}
	if gamma.Min != 2 || gamma.Max != 2 {
		t.Errorf("gamma min/max = %d/%d, want 2/2", gamma.Min, gamma.Max)
	}
	if gamma.SD != 0 {
		t.Errorf("gamma SD = %g, want 0", gamma.SD)
	}
}

func TestPathLengthsLine(t *testing.T) {
	g, res := lineNet(t)
	st := PathLengths(g, res, nil)
	// t0 -> t2: 4 hops (t0,s0,s1,s2,t2); t0 -> t1: 3 hops.
	if st.Max != 4 {
		t.Errorf("Max = %d, want 4", st.Max)
	}
	// 6 ordered pairs: two at 4 hops, four at 3 hops => avg = 20/6.
	if want := 20.0 / 6.0; st.Avg < want-1e-9 || st.Avg > want+1e-9 {
		t.Errorf("Avg = %g, want %g", st.Avg, want)
	}
	if st.Hist[3] != 4 || st.Hist[4] != 2 {
		t.Errorf("Hist = %v, want 4 threes and 2 fours", st.Hist)
	}
}

func TestGammaBalancedVsUnbalanced(t *testing.T) {
	// Nue's balanced routing on a multipath topology must not be worse
	// (max gamma) than routing everything over a single spanning tree.
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	g := tp.Net
	dests := g.Terminals()
	nue, err := core.New(core.DefaultOptions()).Route(g, dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	gammaNue := EdgeForwardingIndex(g, nue, nil)

	tree := bfs.SpanningTree(g, 0)
	tbl := routing.NewTable(g, dests)
	for _, d := range dests {
		for _, s := range g.Switches() {
			if p := tree.TreePath(s, d); len(p) > 0 {
				tbl.Set(s, d, p[0])
			}
		}
	}
	treeRes := &routing.Result{Table: tbl, VCs: 1}
	gammaTree := EdgeForwardingIndex(g, treeRes, nil)
	if gammaNue.Max > gammaTree.Max {
		t.Errorf("balanced Nue max gamma %d worse than tree routing %d", gammaNue.Max, gammaTree.Max)
	}
}

func TestGammaIgnoresTerminalChannels(t *testing.T) {
	g, res := lineNet(t)
	gamma := EdgeForwardingIndex(g, res, nil)
	// 10 channels exist; only 4 are inter-switch.
	if len(gamma.PerChannel) != 4 {
		t.Errorf("PerChannel includes terminal links: %d entries", len(gamma.PerChannel))
	}
	_ = res
}

func TestPathLengthsUnreachable(t *testing.T) {
	g, res := lineNet(t)
	// Wipe one entry so t0 cannot reach t2; stats must simply skip it.
	res.Table.Set(0, g.Terminals()[2], graph.NoChannel)
	st := PathLengths(g, res, nil)
	if st.Max != 4 {
		// t2 -> t0 still exists at 4 hops.
		t.Errorf("Max = %d, want 4", st.Max)
	}
}

// TestTerminalFreeFabric: with no terminals, the default sources are the
// connected switches, as in verify and oracle — a switch-routed ring has
// paths and loaded channels, not an empty metric suite.
func TestTerminalFreeFabric(t *testing.T) {
	g := topology.Ring(6, 0).Net
	res, err := core.New(core.DefaultOptions()).Route(g, g.Switches(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if st := PathLengths(g, res, nil); st.Max != 4 {
		t.Errorf("PathLengths.Max = %d, want 4", st.Max)
	}
	if gamma := EdgeForwardingIndex(g, res, nil); gamma.Max <= 0 {
		t.Errorf("EdgeForwardingIndex.Max = %d, want > 0", gamma.Max)
	}
}
