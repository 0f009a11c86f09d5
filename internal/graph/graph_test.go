package graph

import (
	"testing"
	"testing/quick"
)

// buildRing returns a ring of n switches each with one terminal attached.
func buildRing(t *testing.T, n int) *Network {
	t.Helper()
	b := NewBuilder()
	sw := make([]NodeID, n)
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

func TestBuilderCounts(t *testing.T) {
	g := buildRing(t, 5)
	if got, want := g.NumNodes(), 10; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	if got, want := g.NumSwitches(), 5; got != want {
		t.Errorf("NumSwitches = %d, want %d", got, want)
	}
	if got, want := g.NumTerminals(), 5; got != want {
		t.Errorf("NumTerminals = %d, want %d", got, want)
	}
	// 5 ring links + 5 terminal links, 2 channels each.
	if got, want := g.NumChannels(), 20; got != want {
		t.Errorf("NumChannels = %d, want %d", got, want)
	}
}

func TestChannelReversePairing(t *testing.T) {
	g := buildRing(t, 6)
	for i := 0; i < g.NumChannels(); i++ {
		c := g.Channel(ChannelID(i))
		r := g.Channel(c.Reverse)
		if r.Reverse != c.ID {
			t.Fatalf("channel %d: reverse of reverse is %d", c.ID, r.Reverse)
		}
		if r.From != c.To || r.To != c.From {
			t.Fatalf("channel %d: reverse %d does not invert endpoints", c.ID, r.ID)
		}
	}
}

func TestTerminalMustHaveOneLink(t *testing.T) {
	b := NewBuilder()
	s := b.AddSwitch("")
	s2 := b.AddSwitch("")
	b.AddLink(s, s2)
	tm := b.AddTerminal("")
	b.AddLink(tm, s)
	b.AddLink(tm, s2) // illegal second link
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted terminal with two links")
	}
}

func TestTerminalSwitch(t *testing.T) {
	g := buildRing(t, 4)
	for _, tm := range g.Terminals() {
		sw := g.TerminalSwitch(tm)
		if !g.IsSwitch(sw) {
			t.Errorf("terminal %d attached to non-switch %d", tm, sw)
		}
	}
}

func TestSelfLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddLink(a,a) did not panic")
		}
	}()
	b := NewBuilder()
	s := b.AddSwitch("")
	b.AddLink(s, s)
}

func TestMultigraphParallelChannels(t *testing.T) {
	b := NewBuilder()
	a := b.AddSwitch("")
	c := b.AddSwitch("")
	b.AddLink(a, c)
	b.AddLink(a, c)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := len(g.ChannelsBetween(a, c)); got != 2 {
		t.Errorf("ChannelsBetween = %d parallel channels, want 2", got)
	}
	if g.FindChannel(a, c) == NoChannel {
		t.Error("FindChannel found nothing")
	}
	if g.FindChannel(c, a) == NoChannel {
		t.Error("FindChannel reverse direction found nothing")
	}
}

func TestBFSDistancesOnRing(t *testing.T) {
	g := buildRing(t, 8)
	res := BFS(g, 0)
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

func TestWithoutChannelsDisconnects(t *testing.T) {
	g := buildRing(t, 4)
	if !Connected(g) {
		t.Fatal("ring should be connected")
	}
	// Cut two opposite ring links: still connected is false only if the
	// ring is split; cutting channels (0,1) and (2,3) splits {1,2} from
	// {3,0}.
	c01 := g.FindChannel(0, 1)
	c23 := g.FindChannel(2, 3)
	ng := g.WithoutChannels(c01, c23)
	if Connected(ng) {
		t.Error("cut ring should be disconnected")
	}
	// Original unchanged.
	if !Connected(g) {
		t.Error("WithoutChannels mutated the original network")
	}
}

func TestWithoutNodesIsolates(t *testing.T) {
	g := buildRing(t, 5)
	ng := g.WithoutNodes(2)
	if ng.Degree(2) != 0 {
		t.Errorf("dead switch degree = %d, want 0", ng.Degree(2))
	}
	// Its terminal (ID 7) is now isolated too.
	if ng.Degree(7) != 0 {
		t.Errorf("orphaned terminal degree = %d, want 0", ng.Degree(7))
	}
	// Remaining ring is a path, still connected.
	if !Connected(ng) {
		t.Error("ring minus one switch should remain connected")
	}
}

func TestDiameterRing(t *testing.T) {
	g := buildRing(t, 6)
	// Terminal -> switch -> 3 hops -> switch -> terminal = 5.
	if got, want := Diameter(g), 5; got != want {
		t.Errorf("Diameter = %d, want %d", got, want)
	}
}

func TestSpanningTreeProperties(t *testing.T) {
	g := buildRing(t, 7)
	tr := SpanningTree(g, 0)
	if tr.Parent[0] != NoChannel {
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
		if tr.IsTreeChannel(ChannelID(c)) {
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
			p := t9validatePath(t, g, tr, NodeID(a), NodeID(b))
			if a == b && len(p) != 0 {
				t.Fatalf("TreePath(%d,%d) nonempty for equal endpoints", a, b)
			}
		}
	}
}

// t9validatePath checks path continuity and endpoints of TreePath(a,b).
func t9validatePath(t *testing.T, g *Network, tr *Tree, a, b NodeID) []ChannelID {
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

func TestPathToRootMatchesTreePath(t *testing.T) {
	g := buildRing(t, 8)
	tr := SpanningTree(g, 5)
	for n := 0; n < g.NumNodes(); n++ {
		p1 := tr.PathToRoot(NodeID(n))
		p2 := tr.TreePath(NodeID(n), 5)
		if len(p1) != len(p2) {
			t.Fatalf("node %d: PathToRoot len %d, TreePath len %d", n, len(p1), len(p2))
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("node %d: paths differ at %d", n, i)
			}
		}
	}
}

// Property: in any ring size, BFS distance is symmetric for switches.
func TestQuickBFSSymmetry(t *testing.T) {
	f := func(seed uint8) bool {
		n := 3 + int(seed%10)
		b := NewBuilder()
		sw := make([]NodeID, n)
		for i := range sw {
			sw[i] = b.AddSwitch("")
		}
		for i := 0; i < n; i++ {
			b.AddLink(sw[i], sw[(i+1)%n])
		}
		g := b.MustBuild()
		for i := 0; i < n; i++ {
			di := BFS(g, sw[i])
			for j := 0; j < n; j++ {
				dj := BFS(g, sw[j])
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

func TestMaxDegreeAndAccessors(t *testing.T) {
	g := buildRing(t, 5)
	// Switches: 2 ring neighbors + 1 terminal = 3; terminals: 1.
	if got := g.MaxDegree(); got != 3 {
		t.Errorf("MaxDegree = %d, want 3", got)
	}
	if got := len(g.Nodes()); got != g.NumNodes() {
		t.Errorf("Nodes() returned %d ids", got)
	}
	if got := len(g.Switches()); got != 5 {
		t.Errorf("Switches() = %d, want 5", got)
	}
	n := g.Node(0)
	if n.Kind != Switch || n.ID != 0 {
		t.Errorf("Node(0) = %+v", n)
	}
	if NodeKind(9).String() == "" || Switch.String() != "switch" || Terminal.String() != "terminal" {
		t.Error("NodeKind.String broken")
	}
}

func TestTreeFromParentsPartial(t *testing.T) {
	g := buildRing(t, 6)
	// Tree covering only switches 0,1,2 rooted at 1.
	parent := make([]ChannelID, g.NumNodes())
	for i := range parent {
		parent[i] = NoChannel
	}
	parent[0] = g.FindChannel(1, 0)
	parent[2] = g.FindChannel(1, 2)
	tr := TreeFromParents(g, 1, parent)
	if tr.Dist[0] != 1 || tr.Dist[2] != 1 || tr.Dist[1] != 0 {
		t.Errorf("depths wrong: %v %v %v", tr.Dist[0], tr.Dist[1], tr.Dist[2])
	}
	if tr.Dist[4] != -1 {
		t.Errorf("node outside tree has depth %d", tr.Dist[4])
	}
	if tr.TreePath(0, 4) != nil {
		t.Error("TreePath to unreached node should be nil")
	}
	if p := tr.PathToRoot(2); len(p) != 1 || g.Channel(p[0]).To != 1 {
		t.Errorf("PathToRoot(2) = %v", p)
	}
}

func TestTerminalSwitchPanicsOnSwitch(t *testing.T) {
	g := buildRing(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("TerminalSwitch(switch) did not panic")
		}
	}()
	g.TerminalSwitch(0)
}

func TestCloneIsIndependent(t *testing.T) {
	g := buildRing(t, 6)
	cp := g.Clone()
	c := g.Out(0)[0]
	if !cp.SetChannelFailed(c, true) {
		t.Fatal("SetChannelFailed reported no change")
	}
	if g.Channel(c).Failed {
		t.Fatal("mutating the clone changed the original")
	}
	if len(g.Out(0)) == len(cp.Out(0)) {
		t.Fatal("clone adjacency not updated")
	}
}

// TestSetChannelFailedMatchesRebuild checks that incremental adjacency
// updates produce exactly the state a full rebuild would.
func TestSetChannelFailedMatchesRebuild(t *testing.T) {
	g := buildRing(t, 8)
	mut := g.Clone()
	var failed []ChannelID
	// Fail every third switch-switch duplex link, then restore half.
	for i := 0; i < g.NumChannels(); i += 6 {
		c := ChannelID(i)
		if g.IsSwitch(g.Channel(c).From) && g.IsSwitch(g.Channel(c).To) {
			mut.SetChannelFailed(c, true)
			failed = append(failed, c)
		}
	}
	for i, c := range failed {
		if i%2 == 1 {
			mut.SetChannelFailed(c, false)
		}
	}
	var stillFailed []ChannelID
	for _, c := range failed {
		if mut.Channel(c).Failed {
			stillFailed = append(stillFailed, c)
		}
	}
	want := g.WithoutChannels(stillFailed...)
	for n := 0; n < g.NumNodes(); n++ {
		id := NodeID(n)
		if got, exp := mut.Out(id), want.Out(id); !equalChannels(got, exp) {
			t.Fatalf("out[%d]: got %v want %v", n, got, exp)
		}
		if got, exp := mut.In(id), want.In(id); !equalChannels(got, exp) {
			t.Fatalf("in[%d]: got %v want %v", n, got, exp)
		}
	}
}

func TestSetChannelFailedIdempotent(t *testing.T) {
	g := buildRing(t, 5).Clone()
	c := g.Out(0)[0]
	if !g.SetChannelFailed(c, true) || g.SetChannelFailed(c, true) {
		t.Fatal("idempotency broken on fail")
	}
	if !g.SetChannelFailed(c, false) || g.SetChannelFailed(c, false) {
		t.Fatal("idempotency broken on restore")
	}
	// The reverse half of a half-failed link is already live: restoring
	// the duplex link must not list it a second time.
	rev, ring := g.Channel(c).Reverse, buildRing(t, 5)
	if !g.SetHalfFailed(c, true) || !g.SetChannelFailed(c, false) {
		t.Fatal("restoring a half-failed link reported no change")
	}
	if from, to := g.Channel(rev).From, g.Channel(rev).To; !equalChannels(g.Out(from), ring.Out(from)) || !equalChannels(g.In(to), ring.In(to)) {
		t.Fatalf("restoring a half-failed link left out[%d] = %v, in[%d] = %v", from, g.Out(from), to, g.In(to))
	}
}

func equalChannels(a, b []ChannelID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
