package centrality

import (
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/topology"
)

// pathGraph builds a path of n switches.
func pathGraph(n int) *graph.Network {
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, n)
	for i := range sw {
		sw[i] = b.AddSwitch("")
	}
	for i := 0; i+1 < n; i++ {
		b.AddLink(sw[i], sw[i+1])
	}
	return b.MustBuild()
}

func TestBetweennessPathGraph(t *testing.T) {
	g := pathGraph(5)
	cb := BetweennessN(g, nil, 1)
	// For a path 0-1-2-3-4 (undirected counted per ordered pair):
	// node 2 lies on paths {0,1}x{3,4} and (1,3): 2*(2*2+1) = ... Brandes
	// over ordered pairs counts each unordered pair twice.
	// Expected (ordered): cb[0]=0, cb[1]=2*3=6, cb[2]=2*4=8, symmetric.
	want := []float64{0, 6, 8, 6, 0}
	for i, w := range want {
		if cb[i] != w {
			t.Errorf("cb[%d] = %g, want %g", i, cb[i], w)
		}
	}
}

func TestBetweennessCountsParallelChannelsOnce(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddSwitch("")
	m := b.AddSwitch("")
	c := b.AddSwitch("")
	b.AddLink(a, m)
	b.AddLink(a, m) // parallel
	b.AddLink(m, c)
	g := b.MustBuild()
	cb := BetweennessN(g, nil, 1)
	if cb[m] != 2 { // ordered pairs (a,c) and (c,a)
		t.Errorf("cb[middle] = %g, want 2", cb[m])
	}
}

func TestBetweennessSubgraphRestriction(t *testing.T) {
	g := pathGraph(5)
	// Restrict to {0,1,2}: node 1 is the only intermediate.
	cb := BetweennessN(g, []graph.NodeID{0, 1, 2}, 1)
	if cb[1] != 2 {
		t.Errorf("cb[1] = %g, want 2", cb[1])
	}
	if cb[3] != 0 || cb[4] != 0 {
		t.Error("nodes outside subgraph have nonzero centrality")
	}
}

func TestMostCentralPath(t *testing.T) {
	g := pathGraph(7)
	if got := MostCentral(g, g.Nodes()); got != 3 {
		t.Errorf("MostCentral = %d, want middle node 3", got)
	}
}

func TestMostCentralEmpty(t *testing.T) {
	g := pathGraph(3)
	if got := MostCentral(g, nil); got != graph.NoNode {
		t.Errorf("MostCentral(empty) = %d, want NoNode", got)
	}
}

func TestMostCentralPrefersSwitchOnTie(t *testing.T) {
	// Terminal attached to a 2-switch path: both path endpoints have zero
	// betweenness within {terminal's switch, other switch}; tie-break must
	// not pick a terminal.
	b := graph.NewBuilder()
	s1 := b.AddSwitch("")
	s2 := b.AddSwitch("")
	b.AddLink(s1, s2)
	tm := b.AddTerminal("")
	b.AddLink(tm, s1)
	g := b.MustBuild()
	got := MostCentral(g, []graph.NodeID{tm, s1, s2})
	if !g.IsSwitch(got) {
		t.Errorf("MostCentral = terminal %d; ties must prefer switches", got)
	}
}

func TestConvexSubgraphFig2(t *testing.T) {
	g := topology.RingWithShortcut().Net // n1..n5 = 0..4
	// Destinations n1, n3: shortest paths n1-n2-n3 and n1-n5-n3 (via
	// shortcut) both have length 2, so the hull is {n1,n2,n3,n5}.
	hull := ConvexSubgraph(g, []graph.NodeID{0, 2})
	want := map[graph.NodeID]bool{0: true, 1: true, 2: true, 4: true}
	if len(hull) != len(want) {
		t.Fatalf("hull = %v, want nodes of %v", hull, want)
	}
	for _, n := range hull {
		if !want[n] {
			t.Errorf("unexpected hull node %d", n)
		}
	}
}

func TestConvexSubgraphSingleDest(t *testing.T) {
	g := topology.RingWithShortcut().Net
	hull := ConvexSubgraph(g, []graph.NodeID{3})
	if len(hull) != 1 || hull[0] != 3 {
		t.Errorf("hull of single destination = %v, want [3]", hull)
	}
}

func TestConvexSubgraphContainsIntermediates(t *testing.T) {
	g := pathGraph(6)
	hull := ConvexSubgraph(g, []graph.NodeID{0, 5})
	if len(hull) != 6 {
		t.Errorf("hull of path endpoints = %v, want all 6 nodes", hull)
	}
}

func TestRootForDestinationsFig5(t *testing.T) {
	// §4.3: for destinations {n1,n2,n3} on the Fig. 2a network, the chosen
	// root must lie in the convex subgraph {n1,n2,n3,n5} and must not be
	// the peripheral n4.
	g := topology.RingWithShortcut().Net
	root := RootForDestinationsN(g, []graph.NodeID{0, 1, 2}, 1)
	if root == 3 {
		t.Error("root = n4, which is outside the convex subgraph")
	}
	hull := map[graph.NodeID]bool{0: true, 1: true, 2: true, 4: true}
	if !hull[root] {
		t.Errorf("root = %d, not in convex subgraph", root)
	}
}

func TestRootForDestinationsTorusCenter(t *testing.T) {
	// On a path-like asymmetric destination set of a torus the root should
	// be a switch (terminals are never central).
	tp := topology.Torus3D(3, 3, 3, 2, 1)
	g := tp.Net
	dests := g.Terminals()[:10]
	root := RootForDestinationsN(g, dests, 1)
	if root == graph.NoNode {
		t.Fatal("no root found")
	}
	if !g.IsSwitch(root) {
		t.Errorf("root %d is a terminal", root)
	}
}

func TestBetweennessRandomSpotCheck(t *testing.T) {
	// Brandes must equal the naive all-pairs definition on small graphs.
	rng := rand.New(rand.NewSource(11))
	tp := topology.RandomTopology(rng, 9, 14, 0)
	g := tp.Net
	got := BetweennessN(g, nil, 1)
	want := naiveBetweenness(g)
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("cb[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// naiveBetweenness computes betweenness by explicit shortest-path
// enumeration (exponential-safe only for tiny graphs).
func naiveBetweenness(g *graph.Network) []float64 {
	n := g.NumNodes()
	cb := make([]float64, n)
	// sigma[s][t] and sigmaThrough[s][t][v] via BFS DAG DP.
	for s := 0; s < n; s++ {
		res := bfs.Forward(g, graph.NodeID(s))
		sigma := make([]float64, n)
		sigma[s] = 1
		for _, u := range res.Order[1:] {
			seen := map[graph.NodeID]bool{}
			for _, c := range g.In(u) {
				p := g.Channel(c).From
				if res.Dist[p] == res.Dist[u]-1 && !seen[p] {
					seen[p] = true
					sigma[u] += sigma[p]
				}
			}
		}
		// count paths through v: sigma[s->v] * sigma[v->t] / handled by
		// second BFS from each t; do directly: for each t, for each v.
		for tt := 0; tt < n; tt++ {
			if tt == s || res.Dist[tt] < 0 {
				continue
			}
			rt := bfs.Forward(g, graph.NodeID(tt))
			sigmaT := make([]float64, n)
			sigmaT[tt] = 1
			for _, u := range rt.Order[1:] {
				seen := map[graph.NodeID]bool{}
				for _, c := range g.In(u) {
					p := g.Channel(c).From
					if rt.Dist[p] == rt.Dist[u]-1 && !seen[p] {
						seen[p] = true
						sigmaT[u] += sigmaT[p]
					}
				}
			}
			for v := 0; v < n; v++ {
				if v == s || v == tt {
					continue
				}
				if res.Dist[v]+rt.Dist[v] == res.Dist[tt] {
					cb[v] += sigma[v] * sigmaT[v] / sigma[tt]
				}
			}
		}
	}
	return cb
}
