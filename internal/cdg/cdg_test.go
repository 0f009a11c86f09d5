package cdg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/topology"
)

// fig2Net returns the 5-node ring with the n3-n5 shortcut (paper Fig. 2a).
// Node IDs 0..4 are the paper's n1..n5.
func fig2Net() *graph.Network { return topology.RingWithShortcut().Net }

func TestCompleteCDGSizeFig3(t *testing.T) {
	g := fig2Net()
	d := NewComplete(g)
	// Fig. 3: 12 channel vertices; edge count follows from Definition 6:
	// sum over channels (x,y) of deg(y)-1 = 18 for this network.
	if g.NumChannels() != 12 {
		t.Fatalf("channels = %d, want 12", g.NumChannels())
	}
	if d.NumEdges() != 18 {
		t.Fatalf("complete CDG edges = %d, want 18", d.NumEdges())
	}
	// Initially everything is unused (Fig. 3).
	for c := 0; c < g.NumChannels(); c++ {
		if d.ChannelState(graph.ChannelID(c)) != Unused {
			t.Errorf("channel %d initial state = %v", c, d.ChannelState(graph.ChannelID(c)))
		}
	}
	for e := 0; e < d.NumEdges(); e++ {
		if d.EdgeState(int32(e)) != Unused {
			t.Errorf("edge %d initial state = %v", e, d.EdgeState(int32(e)))
		}
	}
}

func TestNoUTurnEdges(t *testing.T) {
	g := fig2Net()
	d := NewComplete(g)
	for c := 0; c < g.NumChannels(); c++ {
		cp := graph.ChannelID(c)
		from := g.Channel(cp).From
		for _, cq := range d.Succ(cp) {
			if g.Channel(cq).To == from {
				t.Errorf("u-turn edge (%d,%d) present", cp, cq)
			}
			if g.Channel(cp).To != g.Channel(cq).From {
				t.Errorf("non-adjacent edge (%d,%d)", cp, cq)
			}
		}
	}
}

func TestNoUTurnOverParallelChannels(t *testing.T) {
	// Two switches, double link, one extra switch to have continuations.
	b := graph.NewBuilder()
	a := b.AddSwitch("")
	c := b.AddSwitch("")
	e := b.AddSwitch("")
	b.AddLink(a, c)
	b.AddLink(a, c)
	b.AddLink(c, e)
	g := b.MustBuild()
	d := NewComplete(g)
	for _, cab := range g.Out(a) {
		if g.Channel(cab).To != c {
			continue
		}
		for _, cq := range d.Succ(cab) {
			if g.Channel(cq).To == a {
				t.Errorf("u-turn via parallel channel: (%d -> %d)", cab, cq)
			}
		}
	}
}

// tryUse runs Algorithm 3 on the edge (cp, cq) of the complete CDG.
func tryUse(d *Graph, cp, cq graph.ChannelID) bool {
	return d.TryUseEdgeByID(d.EdgeID(cp, cq), cp, cq)
}

func TestTryUseEdgeDetectsThreeCycle(t *testing.T) {
	// Plain 3-ring; using all three clockwise dependencies must fail on
	// the last one (Theorem 1's canonical deadlock cycle).
	tp := topology.Ring(3, 0)
	g := tp.Net
	d := NewComplete(g)
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	c20 := g.FindChannel(2, 0)
	d.SeedChannel(c01)
	if !tryUse(d, c01, c12) {
		t.Fatal("edge (c01,c12) rejected on empty CDG")
	}
	if !tryUse(d, c12, c20) {
		t.Fatal("edge (c12,c20) rejected")
	}
	if tryUse(d, c20, c01) {
		t.Fatal("closing dependency cycle was allowed")
	}
	if got := d.EdgeState(d.EdgeID(c20, c01)); got != Blocked {
		t.Errorf("cycle-closing edge state = %v, want blocked", got)
	}
	if !d.UsedAcyclic() {
		t.Error("used subgraph cyclic despite block")
	}
	// Condition (a): retry is rejected without a new search.
	searches := d.CycleSearches
	if tryUse(d, c20, c01) {
		t.Error("blocked edge accepted on retry")
	}
	if d.CycleSearches != searches {
		t.Error("retry of blocked edge ran a cycle search (condition (a) violated)")
	}
}

func TestConditionBSkipsSearch(t *testing.T) {
	tp := topology.Ring(4, 0)
	g := tp.Net
	d := NewComplete(g)
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	d.SeedChannel(c01)
	if !tryUse(d, c01, c12) {
		t.Fatal("first use rejected")
	}
	searches := d.CycleSearches
	if !tryUse(d, c01, c12) {
		t.Fatal("second use of used edge rejected")
	}
	if d.CycleSearches != searches {
		t.Error("used edge re-use ran a cycle search (condition (b) violated)")
	}
}

func TestConditionCMergesGroups(t *testing.T) {
	tp := topology.Ring(6, 0)
	g := tp.Net
	d := NewComplete(g)
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	c34 := g.FindChannel(3, 4)
	c45 := g.FindChannel(4, 5)
	d.SeedChannel(c01)
	d.SeedChannel(c34)
	// SeedChannel of a used channel returns its group.
	if d.SeedChannel(c01) == d.SeedChannel(c34) {
		t.Fatal("fresh seeds share a group")
	}
	if !tryUse(d, c01, c12) || !tryUse(d, c34, c45) {
		t.Fatal("disjoint subgraph edges rejected")
	}
	searches := d.CycleSearches
	// Connect the two disjoint subgraphs: c23 joins them.
	c23 := g.FindChannel(2, 3)
	if !tryUse(d, c12, c23) {
		t.Fatal("extension rejected")
	}
	if !tryUse(d, c23, c34) {
		t.Fatal("merging edge rejected")
	}
	if d.CycleSearches != searches {
		t.Error("merging disjoint subgraphs ran a cycle search (condition (c) violated)")
	}
	if d.SeedChannel(c01) != d.SeedChannel(c45) {
		t.Error("groups not merged")
	}
}

func TestConditionDNeedsSearch(t *testing.T) {
	g := fig2Net()
	d := NewComplete(g)
	// Reproduce the §4.6.1 walk-through: escape paths from Fig. 4, then
	// use edges from c(n1,n2).
	tree := fig4Tree(g)
	d.MarkEscapePaths(tree, g.Nodes())
	c12 := g.FindChannel(0, 1) // c_{n1,n2}
	c23 := g.FindChannel(1, 2)
	c34 := g.FindChannel(2, 3)
	c45 := g.FindChannel(3, 4)
	d.SeedChannel(c12)
	if d.SeedChannel(c12) == d.SeedChannel(c23) {
		t.Fatal("fresh seed already merged with escape paths")
	}
	// Condition (c): c23 is part of the escape subgraph, c12 is not.
	searches := d.CycleSearches
	if !tryUse(d, c12, c23) {
		t.Fatal("(c12,c23) rejected")
	}
	if d.CycleSearches != searches {
		t.Error("condition (c) case ran a search")
	}
	if !tryUse(d, c23, c34) {
		t.Fatal("(c23,c34) rejected")
	}
	// Condition (d): (c34,c45) stays within the merged subgraph; the paper
	// walks the DFS and finds no cycle.
	searches = d.CycleSearches
	if !tryUse(d, c34, c45) {
		t.Fatal("(c34,c45) rejected; paper's example allows it")
	}
	if d.CycleSearches != searches+1 {
		t.Errorf("condition (d) ran %d searches, want exactly 1", d.CycleSearches-searches)
	}
	if !d.UsedAcyclic() {
		t.Error("used subgraph became cyclic")
	}
}

// fig4Tree builds the spanning tree of Fig. 4: all links except n1-n2 and
// n3-n4, rooted at n5 (IDs: n1..n5 = 0..4). Those four links are a tree,
// so it is the BFS tree of g without the other two.
func fig4Tree(g *graph.Network) *bfs.Tree {
	cut := g.Clone()
	cut.SetChannelFailed(g.FindChannel(0, 1), true)
	cut.SetChannelFailed(g.FindChannel(2, 3), true)
	return bfs.SpanningTree(cut, 4)
}

func TestEscapePathsFig4AllDestinations(t *testing.T) {
	g := fig2Net()
	d := NewComplete(g)
	tree := fig4Tree(g)
	ep := d.MarkEscapePaths(tree, g.Nodes())
	// All 8 tree channels used; dependencies: 6 through n5 + 2 through n3.
	if ep.Channels != 8 {
		t.Errorf("escape channels = %d, want 8", ep.Channels)
	}
	if ep.Deps != 8 {
		t.Errorf("escape dependencies = %d, want 8", ep.Deps)
	}
	if !d.UsedAcyclic() {
		t.Error("escape paths induced a cycle")
	}
	// Non-tree channels remain unused.
	c01 := g.FindChannel(0, 1)
	if d.ChannelState(c01) != Unused {
		t.Error("non-tree channel marked used")
	}
}

func TestEscapePathsFig5RootChoice(t *testing.T) {
	// Fig. 5 / §4.3: for destinations {n1,n2,n3}, a root at n2 induces
	// fewer initial channel dependencies than a root at n5. With the BFS
	// trees our implementation builds, root n2 yields exactly the paper's
	// 4 dependencies; root n5 yields 6 (the paper's hand-drawn tree yields
	// 5 — the count depends on the tree, the ordering does not).
	g := fig2Net()
	dests := []graph.NodeID{0, 1, 2} // n1, n2, n3

	d5 := NewComplete(g)
	ep5 := d5.MarkEscapePaths(bfs.SpanningTree(g, 4), dests)

	d2 := NewComplete(g)
	ep2 := d2.MarkEscapePaths(bfs.SpanningTree(g, 1), dests)

	if ep2.Deps != 4 {
		t.Errorf("root n2: deps = %d, want 4", ep2.Deps)
	}
	if ep5.Deps != 6 {
		t.Errorf("root n5: deps = %d, want 6", ep5.Deps)
	}
	if ep2.Deps >= ep5.Deps {
		t.Errorf("central root should induce fewer deps: n2=%d, n5=%d", ep2.Deps, ep5.Deps)
	}
	if !d5.UsedAcyclic() || !d2.UsedAcyclic() {
		t.Error("escape paths cyclic")
	}
}

func TestEscapeNextHop(t *testing.T) {
	g := fig2Net()
	tree := bfs.SpanningTree(g, 4)
	// From n1 (0) toward n3 (2): tree path n1 -> n5 -> n3.
	p := tree.TreePath(0, 2)
	if len(p) == 0 || g.Channel(p[0]).From != 0 || g.Channel(p[0]).To != 4 {
		t.Errorf("escape path 0->2 = %v, want its first channel n1->n5", p)
	}
	if p := tree.TreePath(2, 2); len(p) != 0 {
		t.Errorf("escape path to self = %v, want empty", p)
	}
}

// TestQuickUsedSubgraphAlwaysAcyclic drives random tryUse sequences on
// random networks and checks the central invariant: the used subgraph of
// the complete CDG never becomes cyclic (Lemma 2's mechanism).
func TestQuickUsedSubgraphAlwaysAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(8)
		tp := topology.RandomTopology(rng, n, n+rng.Intn(n), 1)
		g := tp.Net
		d := NewComplete(g)
		// Optionally mark escape paths first.
		if rng.Intn(2) == 0 {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			d.MarkEscapePaths(bfs.SpanningTree(g, root), g.Terminals())
		}
		for step := 0; step < 300; step++ {
			cp := graph.ChannelID(rng.Intn(g.NumChannels()))
			succ := d.Succ(cp)
			if len(succ) == 0 {
				continue
			}
			cq := succ[rng.Intn(len(succ))]
			d.SeedChannel(cp)
			tryUse(d, cp, cq)
			if step%50 == 0 && !d.UsedAcyclic() {
				return false
			}
		}
		return d.UsedAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounting(t *testing.T) {
	tp := topology.Ring(5, 0)
	g := tp.Net
	d := NewComplete(g)
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	d.SeedChannel(c01)
	tryUse(d, c01, c12)
	usedChannels, usedEdges, blockedEdges := 0, 0, 0
	for c := 0; c < g.NumChannels(); c++ {
		if d.ChannelState(graph.ChannelID(c)) == Used {
			usedChannels++
		}
	}
	for e := 0; e < d.NumEdges(); e++ {
		switch d.EdgeState(int32(e)) {
		case Used:
			usedEdges++
		case Blocked:
			blockedEdges++
		}
	}
	if usedChannels != 2 {
		t.Errorf("used channels = %d, want 2", usedChannels)
	}
	if usedEdges != 1 {
		t.Errorf("used edges = %d, want 1", usedEdges)
	}
	if blockedEdges != 0 {
		t.Errorf("blocked edges = %d, want 0", blockedEdges)
	}
}
