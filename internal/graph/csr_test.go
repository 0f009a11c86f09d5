package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle/stress"
	"repro/internal/topology"
)

// csrMatches fails unless the flat view of g states exactly what g's
// own accessors state: the same adjacency in the same order for every
// node, the same attributes for every channel.
func csrMatches(t *testing.T, g *graph.Network, when string) {
	t.Helper()
	v := g.CSRView()
	if v.NumNodes() != g.NumNodes() || v.NumChannels() != g.NumChannels() {
		t.Fatalf("%s: CSR has %d nodes / %d channels, network %d / %d",
			when, v.NumNodes(), v.NumChannels(), g.NumNodes(), g.NumChannels())
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		if !slices.Equal(v.Out(id), g.Out(id)) {
			t.Fatalf("%s: node %d: CSR.Out %v, Network.Out %v", when, n, v.Out(id), g.Out(id))
		}
		if !slices.Equal(v.In(id), g.In(id)) {
			t.Fatalf("%s: node %d: CSR.In %v, Network.In %v", when, n, v.In(id), g.In(id))
		}
	}
	for c := 0; c < g.NumChannels(); c++ {
		ch := g.Channel(graph.ChannelID(c))
		if v.From[c] != ch.From || v.To[c] != ch.To || v.Rev[c] != ch.Reverse || v.Failed[c] != ch.Failed {
			t.Fatalf("%s: channel %d: CSR (%d→%d rev %d failed %v), network %+v",
				when, c, v.From[c], v.To[c], v.Rev[c], v.Failed[c], ch)
		}
	}
}

// TestCSRMatchesNetwork holds the cached flat view to the per-node lists
// it is built from, on every family of the golden wall, through a seeded
// sequence of duplex failures, one-way failures and restores. The engine
// reads the view; the oracle, the baselines and the mutators read the
// lists — this is what lets them be spoken of as one adjacency.
func TestCSRMatchesNetwork(t *testing.T) {
	for _, tp := range []*topology.Topology{
		topology.Torus3D(4, 4, 3, 1, 1),
		topology.Dragonfly(4, 2, 2, 9),
		topology.KAryNTree(2, 3, 2),
		topology.Kautz(3, 2, 1, 1),
		topology.FullMesh(8, 1),
		stress.RandomRegular(rand.New(rand.NewSource(16)), 12, 3, 1),
	} {
		t.Run(tp.Name, func(t *testing.T) {
			csrMatches(t, tp.Net, "healthy")
			g := tp.Net.Clone()
			rng := rand.New(rand.NewSource(7))
			// A link is restored by the call that failed it, so the two
			// fault models never overlap on one link.
			type fault struct {
				c      graph.ChannelID
				duplex bool
			}
			faults := map[graph.ChannelID]fault{} // keyed by the link's lower channel ID
			for step := 0; step < 200; step++ {
				c := graph.ChannelID(rng.Intn(g.NumChannels()))
				link := min(c, g.Channel(c).Reverse)
				f, failed := faults[link]
				if failed {
					delete(faults, link)
				} else {
					f = fault{c: c, duplex: rng.Intn(2) == 0}
					faults[link] = f
				}
				if f.duplex {
					g.SetChannelFailed(f.c, !failed)
				} else {
					g.SetHalfFailed(f.c, !failed)
				}
				csrMatches(t, g, fmt.Sprintf("after step %d", step))
			}
			csrMatches(t, tp.Net, "original after mutating its clone")
		})
	}
}
