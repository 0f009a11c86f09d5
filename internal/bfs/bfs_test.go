package bfs

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// buildRing returns a ring of n switches each with one terminal attached.
func buildRing(t *testing.T, n int) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		sw[i] = b.AddSwitch("")
	}
	for i := 0; i < n; i++ {
		b.AddLink(sw[i], sw[(i+1)%n])
	}
	for i := 0; i < n; i++ {
		tm := b.AddTerminal("")
		b.AddLink(tm, sw[i])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBFSDistancesOnRing(t *testing.T) {
	g := buildRing(t, 8)
	res := Forward(g, 0)
	// Switch 4 is diametrically opposite switch 0.
	if got, want := res.Dist[4], int32(4); got != want {
		t.Errorf("Dist[4] = %d, want %d", got, want)
	}
	// Terminal attached to switch 4 (terminals are IDs 8..15).
	if got, want := res.Dist[12], int32(5); got != want {
		t.Errorf("Dist[terminal of sw4] = %d, want %d", got, want)
	}
	if len(res.Order) != g.NumNodes() {
		t.Errorf("BFS reached %d nodes, want %d", len(res.Order), g.NumNodes())
	}
}

// TestConnectedDetectsCut cuts a ring in two on a clone: Connected sees
// the split, the original stays connected, and the spanning tree of one
// half has no path into the other.
func TestConnectedDetectsCut(t *testing.T) {
	g := buildRing(t, 4)
	if !Connected(g) {
		t.Fatal("ring should be connected")
	}
	// Cutting channels (0,1) and (2,3) splits {1,2} from {3,0}.
	ng := g.Clone()
	ng.SetChannelFailed(g.FindChannel(0, 1), true)
	ng.SetChannelFailed(g.FindChannel(2, 3), true)
	if Connected(ng) {
		t.Error("cut ring should be disconnected")
	}
	if !Connected(g) {
		t.Error("failing channels of the clone disconnected the original network")
	}
	if SpanningTree(ng, 0).TreePath(0, 2) != nil {
		t.Error("TreePath to an unreached node should be nil")
	}
}

func TestSpanningTreeProperties(t *testing.T) {
	g := buildRing(t, 7)
	tr := SpanningTree(g, 0)
	if tr.Parent[0] != graph.NoChannel {
		t.Error("root has a parent")
	}
	reached := 0
	for n := 0; n < g.NumNodes(); n++ {
		if tr.Dist[n] >= 0 {
			reached++
		}
	}
	if reached != g.NumNodes() {
		t.Fatalf("tree reaches %d nodes, want %d", reached, g.NumNodes())
	}
	// Tree over N nodes has N-1 duplex links => 2(N-1) member channels.
	cnt := 0
	for c := 0; c < g.NumChannels(); c++ {
		if tr.IsTreeChannel(graph.ChannelID(c)) {
			cnt++
		}
	}
	if want := 2 * (g.NumNodes() - 1); cnt != want {
		t.Errorf("tree member channels = %d, want %d", cnt, want)
	}
}

func TestTreePathEndpoints(t *testing.T) {
	g := buildRing(t, 9)
	tr := SpanningTree(g, 3)
	for a := 0; a < g.NumNodes(); a++ {
		for b := 0; b < g.NumNodes(); b++ {
			p := t9validatePath(t, g, tr, graph.NodeID(a), graph.NodeID(b))
			if a == b && len(p) != 0 {
				t.Fatalf("TreePath(%d,%d) nonempty for equal endpoints", a, b)
			}
		}
	}
}

// t9validatePath checks path continuity and endpoints of TreePath(a,b).
func t9validatePath(t *testing.T, g *graph.Network, tr *Tree, a, b graph.NodeID) []graph.ChannelID {
	t.Helper()
	p := tr.TreePath(a, b)
	if a == b {
		return p
	}
	if len(p) == 0 {
		t.Fatalf("TreePath(%d,%d) empty", a, b)
	}
	if g.Channel(p[0]).From != a {
		t.Fatalf("TreePath(%d,%d) starts at %d", a, b, g.Channel(p[0]).From)
	}
	if g.Channel(p[len(p)-1]).To != b {
		t.Fatalf("TreePath(%d,%d) ends at %d", a, b, g.Channel(p[len(p)-1]).To)
	}
	for i := 0; i+1 < len(p); i++ {
		if g.Channel(p[i]).To != g.Channel(p[i+1]).From {
			t.Fatalf("TreePath(%d,%d) discontinuous at hop %d", a, b, i)
		}
		if !tr.IsTreeChannel(p[i]) {
			t.Fatalf("TreePath(%d,%d) uses non-tree channel", a, b)
		}
	}
	return p
}

// Property: in any ring size, BFS distance is symmetric for switches.
func TestQuickBFSSymmetry(t *testing.T) {
	f := func(seed uint8) bool {
		n := 3 + int(seed%10)
		b := graph.NewBuilder()
		sw := make([]graph.NodeID, n)
		for i := range sw {
			sw[i] = b.AddSwitch("")
		}
		for i := 0; i < n; i++ {
			b.AddLink(sw[i], sw[(i+1)%n])
		}
		g := b.MustBuild()
		for i := 0; i < n; i++ {
			di := Forward(g, sw[i])
			for j := 0; j < n; j++ {
				dj := Forward(g, sw[j])
				if di.Dist[sw[j]] != dj.Dist[sw[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestReverseTransposesForward: on a ring with one-way faults, the
// reverse search from d measures every node's distance TO d, which the
// forward search from that node measures too, and its parent channel
// leaves the node toward d.
func TestReverseTransposesForward(t *testing.T) {
	g := buildRing(t, 6).Clone()
	g.SetHalfFailed(g.FindChannel(0, 1), true)
	g.SetHalfFailed(g.FindChannel(3, 2), true)
	for d := 0; d < g.NumNodes(); d++ {
		rev := Reverse(g, graph.NodeID(d))
		for n := 0; n < g.NumNodes(); n++ {
			if got, want := rev.Dist[n], Forward(g, graph.NodeID(n)).Dist[d]; got != want {
				t.Fatalf("Reverse(%d).Dist[%d] = %d, Forward(%d).Dist[%d] = %d", d, n, got, n, d, want)
			}
			if c := rev.Parent[n]; c != graph.NoChannel && (g.Channel(c).From != graph.NodeID(n) || rev.Dist[g.Channel(c).To] != rev.Dist[n]-1) {
				t.Fatalf("Reverse(%d).Parent[%d] = %d does not step from %d toward %d", d, n, c, n, d)
			}
		}
	}
}

// TestSpanningTreeReuse: a tree drawn from the free list after trees of a
// larger and a smaller network were handed back reads as one built on
// fresh arrays, and a warm build allocates nothing.
func TestSpanningTreeReuse(t *testing.T) {
	big, small := buildRing(t, 12), buildRing(t, 5)
	fresh := SpanningTree(small, 2)
	want := *fresh
	SpanningTree(big, 7).Release()
	SpanningTree(small, 0).Release()
	got := SpanningTree(small, 2)
	if got.Root != want.Root || !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Parent, want.Parent) || !slices.Equal(got.Order, want.Order) {
		t.Fatalf("recycled tree %+v, fresh %+v", got, want)
	}
	for c := 0; c < small.NumChannels(); c++ {
		if got.IsTreeChannel(graph.ChannelID(c)) != want.IsTreeChannel(graph.ChannelID(c)) {
			t.Fatalf("channel %d: recycled tree member %v, fresh %v", c, got.IsTreeChannel(graph.ChannelID(c)), want.IsTreeChannel(graph.ChannelID(c)))
		}
	}
	got.Release()
	if n := testing.AllocsPerRun(20, func() { SpanningTree(big, 3).Release() }); n != 0 {
		t.Errorf("a warm SpanningTree makes %v allocations, want 0", n)
	}
}
