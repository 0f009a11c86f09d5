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

// laidOut returns every node's live out and in channels in adjacency
// order, computed from the channel attributes alone: a channel's place is
// the number of live channels of the same node that come before it by
// (far end, ID). It is what Build lays out for a network with these
// failures, whatever sequence of flips produced them.
func laidOut(g *graph.Network) (out, in [][]graph.ChannelID) {
	out = make([][]graph.ChannelID, g.NumNodes())
	in = make([][]graph.ChannelID, g.NumNodes())
	for c := 0; c < g.NumChannels(); c++ {
		if ch := g.Channel(graph.ChannelID(c)); !ch.Failed {
			out[ch.From] = append(out[ch.From], ch.ID)
			in[ch.To] = append(in[ch.To], ch.ID)
		}
	}
	ranked := func(list []graph.ChannelID, far func(graph.ChannelID) graph.NodeID) []graph.ChannelID {
		res := make([]graph.ChannelID, len(list))
		for _, a := range list {
			i := 0
			for _, b := range list {
				if far(b) < far(a) || far(b) == far(a) && b < a {
					i++
				}
			}
			res[i] = a
		}
		return res
	}
	for n := range out {
		out[n] = ranked(out[n], func(c graph.ChannelID) graph.NodeID { return g.Channel(c).To })
		in[n] = ranked(in[n], func(c graph.ChannelID) graph.NodeID { return g.Channel(c).From })
	}
	return out, in
}

// adjacencyLaidOut fails unless every node's Out and In, through the
// network and through its CSR, are exactly laidOut's lists, capped at
// their length so a caller's append cannot write into the node's range.
func adjacencyLaidOut(t *testing.T, g *graph.Network, when string) {
	t.Helper()
	v := g.CSRView()
	if v.NumNodes() != g.NumNodes() || v.NumChannels() != g.NumChannels() {
		t.Fatalf("%s: CSR has %d nodes / %d channels, network %d / %d",
			when, v.NumNodes(), v.NumChannels(), g.NumNodes(), g.NumChannels())
	}
	out, in := laidOut(g)
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		for _, s := range []struct {
			name      string
			got, want []graph.ChannelID
		}{
			{"Out", g.Out(id), out[n]}, {"In", g.In(id), in[n]},
			{"CSR.Out", v.Out(id), out[n]}, {"CSR.In", v.In(id), in[n]},
		} {
			if !slices.Equal(s.got, s.want) {
				t.Fatalf("%s: node %d: %s %v, laid out %v", when, n, s.name, s.got, s.want)
			}
			if cap(s.got) != len(s.got) {
				t.Fatalf("%s: node %d: %s has capacity %d beyond its %d channels", when, n, s.name, cap(s.got), len(s.got))
			}
		}
	}
}

// TestCSRMatchesNetwork holds the mutated adjacency to the one Build
// would lay out, on every family of the golden wall, through a seeded
// sequence of duplex failures, one-way failures and restores. Flips move
// channels within fixed per-node ranges; this is what lets a flipped
// network be spoken of as equal to a built one.
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
			adjacencyLaidOut(t, tp.Net, "healthy")
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
				adjacencyLaidOut(t, g, fmt.Sprintf("after step %d", step))
			}
			adjacencyLaidOut(t, tp.Net, "original after mutating its clone")
		})
	}
}

// TestWithoutOnHalfFailedLink checks the networks derived on a link that
// already has one half failed: failing the link on a clone by its live
// half fails both halves and by its failed half changes nothing (that
// half is already in the requested state), WithoutNodes fails every
// channel touching the node, and neither touches the network it is
// called on.
func TestWithoutOnHalfFailedLink(t *testing.T) {
	g := topology.Torus3D(3, 3, 2, 1, 1).Net.Clone()
	sw := g.Switches()[0]
	c := g.Out(sw)[0]
	rev := g.Channel(c).Reverse
	far := g.Channel(c).To
	g.SetHalfFailed(c, true)
	before := slices.Clone(g.CSRView().Failed)

	wantFailed := func(ng *graph.Network, failed func(graph.Channel) bool, when string) {
		t.Helper()
		for i := 0; i < ng.NumChannels(); i++ {
			ch := ng.Channel(graph.ChannelID(i))
			if want := before[i] || failed(ch); ch.Failed != want {
				t.Fatalf("%s: channel %d failed %v, want %v", when, i, ch.Failed, want)
			}
		}
		adjacencyLaidOut(t, ng, when)
	}
	for _, named := range []graph.ChannelID{c, rev} {
		ng := g.Clone()
		ng.SetChannelFailed(named, true)
		wantFailed(ng, func(ch graph.Channel) bool { return named == rev && (ch.ID == c || ch.ID == rev) },
			fmt.Sprintf("SetChannelFailed(%d)", named))
	}
	for _, n := range []graph.NodeID{sw, far} {
		ng := g.WithoutNodes(n)
		wantFailed(ng, func(ch graph.Channel) bool { return ch.From == n || ch.To == n },
			fmt.Sprintf("WithoutNodes(%d)", n))
		if ng.Degree(n) != 0 || len(ng.In(n)) != 0 {
			t.Fatalf("WithoutNodes(%d) left out %v, in %v", n, ng.Out(n), ng.In(n))
		}
	}
	if !slices.Equal(g.CSRView().Failed, before) {
		t.Fatal("a derived network changed the network it was derived from")
	}
	adjacencyLaidOut(t, g, "original")
}
