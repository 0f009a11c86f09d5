package cdg

import (
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/topology"
)

// treeNext returns the next-hop function of tree-path routing toward dest.
func treeNext(tree *bfs.Tree, dest graph.NodeID) func(graph.NodeID) graph.ChannelID {
	return func(n graph.NodeID) graph.ChannelID {
		if n == dest || tree.Dist[n] < 0 {
			return graph.NoChannel
		}
		p := tree.TreePath(n, dest)
		if len(p) == 0 {
			return graph.NoChannel
		}
		return p[0]
	}
}

// TestSeedRouteAcyclicRouting seeds a full tree routing for every terminal
// of a torus into one fresh CDG: it must succeed and stay acyclic.
func TestSeedRouteAcyclicRouting(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 1, 1)
	net := tp.Net
	tree := bfs.SpanningTree(net, net.Switches()[0])
	d := NewComplete(net)
	chans, deps := 0, 0
	for _, dest := range net.Terminals() {
		st, err := d.SeedRoute(dest, treeNext(tree, dest))
		if err != nil {
			t.Fatalf("SeedRoute(%d): %v", dest, err)
		}
		chans += st.Channels
		deps += st.Deps
	}
	if chans == 0 || deps == 0 {
		t.Fatalf("seeded %d channels / %d deps, want > 0 each", chans, deps)
	}
	if !d.UsedAcyclic() {
		t.Fatal("seeded used subgraph is cyclic")
	}
	// Re-seeding the same routing is idempotent: nothing new is marked.
	for _, dest := range net.Terminals() {
		st, err := d.SeedRoute(dest, treeNext(tree, dest))
		if err != nil {
			t.Fatalf("re-SeedRoute(%d): %v", dest, err)
		}
		if st.Channels != 0 || st.Deps != 0 {
			t.Fatalf("re-seed marked %+v, want nothing", st)
		}
	}
}

// TestSeedRouteDetectsCycle seeds two clockwise-only routings around a
// ring whose union of dependencies is cyclic; the second must be refused.
func TestSeedRouteDetectsCycle(t *testing.T) {
	tp := topology.Ring(4, 0)
	net := tp.Net
	sw := net.Switches()
	clockwiseTo := func(dest graph.NodeID) func(graph.NodeID) graph.ChannelID {
		return func(n graph.NodeID) graph.ChannelID {
			if n == dest {
				return graph.NoChannel
			}
			return net.FindChannel(n, sw[(int(n)+1)%len(sw)])
		}
	}
	d := NewComplete(net)
	if _, err := d.SeedRoute(sw[0], clockwiseTo(sw[0])); err != nil {
		t.Fatalf("first routing: %v", err)
	}
	if _, err := d.SeedRoute(sw[2], clockwiseTo(sw[2])); err == nil {
		t.Fatal("cyclic union of routings was not refused")
	}
	if !d.UsedAcyclic() {
		t.Fatal("used subgraph cyclic even after refusal")
	}
}

// TestSeedRouteRejectsFailedChannel: a stale routing over a failed link
// must be reported, not silently seeded.
func TestSeedRouteRejectsFailedChannel(t *testing.T) {
	tp := topology.Ring(4, 0)
	net := tp.Net
	sw := net.Switches()
	stale := net.FindChannel(sw[1], sw[2])
	failed := net.Clone()
	failed.SetChannelFailed(stale, true)
	d := NewComplete(failed)
	next := func(n graph.NodeID) graph.ChannelID {
		if n == sw[1] {
			return stale
		}
		return graph.NoChannel
	}
	if _, err := d.SeedRoute(sw[2], next); err == nil {
		t.Fatal("routing over failed channel was not refused")
	}
}
