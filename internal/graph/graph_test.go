package graph

import "testing"

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
	parallel := 0
	for _, ch := range g.Out(a) {
		if g.Channel(ch).To == c {
			parallel++
		}
	}
	if parallel != 2 {
		t.Errorf("%d parallel channels from %d to %d, want 2", parallel, a, c)
	}
	if g.FindChannel(a, c) == NoChannel {
		t.Error("FindChannel found nothing")
	}
	if g.FindChannel(c, a) == NoChannel {
		t.Error("FindChannel reverse direction found nothing")
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
	// The remaining ring is the path 3-4-0-1: the dead switch's two
	// neighbours each lost one ring link, the other two lost none.
	for sw, want := range map[NodeID]int{0: 3, 1: 2, 3: 2, 4: 3} {
		if got := ng.Degree(sw); got != want {
			t.Errorf("switch %d degree = %d, want %d", sw, got, want)
		}
	}
}

func TestMaxDegreeAndAccessors(t *testing.T) {
	g := buildRing(t, 5)
	// Switches: 2 ring neighbors + 1 terminal = 3; terminals: 1.
	maxDegree := 0
	for _, n := range g.Nodes() {
		maxDegree = max(maxDegree, g.Degree(n))
	}
	if maxDegree != 3 {
		t.Errorf("max degree = %d, want 3", maxDegree)
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
	want := g.Clone()
	for _, c := range stillFailed {
		want.SetChannelFailed(c, true)
	}
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
