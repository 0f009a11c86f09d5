package centrality_test

import (
	"reflect"
	"testing"

	"repro/internal/centrality"
	"repro/internal/certtest"
	"repro/internal/graph"
)

// referenceConvexSubgraph is Definition 8 computed the way ConvexSubgraph
// did before it kept one scratch per call: a fresh graph.BFS per
// destination.
func referenceConvexSubgraph(g *graph.Network, dests []graph.NodeID) []graph.NodeID {
	inHull := make([]bool, g.NumNodes())
	isDest := make([]bool, g.NumNodes())
	for _, d := range dests {
		isDest[d] = true
		inHull[d] = true
	}
	for _, d := range dests {
		res := graph.BFS(g, d)
		marked := make([]bool, g.NumNodes())
		for i := len(res.Order) - 1; i >= 0; i-- {
			n := res.Order[i]
			if !(isDest[n] || marked[n]) {
				continue
			}
			inHull[n] = true
			if res.Dist[n] == 0 {
				continue
			}
			for _, c := range g.In(n) {
				if p := g.Channel(c).From; res.Dist[p] == res.Dist[n]-1 {
					marked[p] = true
				}
			}
		}
	}
	var hull []graph.NodeID
	for n := 0; n < g.NumNodes(); n++ {
		if inHull[n] {
			hull = append(hull, graph.NodeID(n))
		}
	}
	return hull
}

// TestConvexSubgraphMatchesPerDestinationBFS: the shared scratch changes
// no hull — on every topology of the golden wall (half of them with 12%
// of their links failed), on the one-way-fault network of the certifier
// fixtures (where a destination's in-neighbours need not be reachable
// from it), for the full destination set and for strided subsets, whose
// hulls leave nodes out.
func TestConvexSubgraphMatchesPerDestinationBFS(t *testing.T) {
	cases := certtest.Wall(t)
	for _, c := range certtest.Shapes(t) {
		if c.Name == "half-failed" || c.Name == "terminal-less" {
			cases = append(cases, c)
		}
	}
	proper := 0
	for _, c := range cases {
		all := c.Res.Table.Dests()
		for _, stride := range []int{1, 3, 7} {
			var dests []graph.NodeID
			for i := stride - 1; i < len(all); i += stride {
				dests = append(dests, all[i])
			}
			got, want := centrality.ConvexSubgraph(c.Net, dests), referenceConvexSubgraph(c.Net, dests)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, every %d. destination: hull %v, want %v", c.Name, stride, got, want)
			}
			if len(want) < c.Net.NumNodes() {
				proper++
			}
		}
	}
	if proper == 0 {
		t.Fatal("every hull is the whole network: the comparison pins nothing")
	}
}

// TestConvexSubgraphOneWayNeighbours: a destination's in-neighbours that
// it cannot reach have no distance from it, and must not pass for nodes
// one hop closer to it. Channels x->d, x->p and p->d only, destinations d
// and x: p reaches d, but the shortest path x->d does not cross it.
func TestConvexSubgraphOneWayNeighbours(t *testing.T) {
	b := graph.NewBuilder()
	d, p, x := b.AddSwitch("d"), b.AddSwitch("p"), b.AddSwitch("x")
	xd, xp, pd := b.AddLink(x, d), b.AddLink(x, p), b.AddLink(p, d)
	g := b.MustBuild()
	for _, c := range []graph.ChannelID{xd, xp, pd} {
		g.SetHalfFailed(g.Channel(c).Reverse, true)
	}
	dests := []graph.NodeID{d, x}
	got, want := centrality.ConvexSubgraph(g, dests), referenceConvexSubgraph(g, dests)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, dests) {
		t.Errorf("hull %v, reference %v, want %v", got, want, dests)
	}
}
