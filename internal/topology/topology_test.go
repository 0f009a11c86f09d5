package topology

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
)

func TestRingWithShortcutMatchesFig2a(t *testing.T) {
	tp := RingWithShortcut()
	g := tp.Net
	if g.NumSwitches() != 5 || g.NumTerminals() != 0 {
		t.Fatalf("got %d switches, %d terminals", g.NumSwitches(), g.NumTerminals())
	}
	// 6 duplex links = 12 channels.
	if g.NumChannels() != 12 {
		t.Fatalf("NumChannels = %d, want 12", g.NumChannels())
	}
	// Shortcut n3-n5 (IDs 2 and 4).
	if g.FindChannel(2, 4) == graph.NoChannel {
		t.Error("missing shortcut channel n3->n5")
	}
	if g.FindChannel(4, 2) == graph.NoChannel {
		t.Error("missing shortcut channel n5->n3")
	}
	// n1 (ID 0) has degree 2.
	if d := g.Degree(0); d != 2 {
		t.Errorf("degree(n1) = %d, want 2", d)
	}
	// n3, n5 have degree 3.
	for _, n := range []graph.NodeID{2, 4} {
		if d := g.Degree(n); d != 3 {
			t.Errorf("degree(node %d) = %d, want 3", n, d)
		}
	}
}

// TestTable1Counts checks every generated Table 1 topology against the
// paper's published switch/terminal/channel counts. Channel counts that
// the paper rounds or that depend on unpublished cabling are checked with
// the tolerance documented in DESIGN.md.
func TestTable1Counts(t *testing.T) {
	tests := []struct {
		name            string
		tp              *Topology
		switches        int
		terminals       int
		ssLinks         int
		ssLinkTolerance int
	}{
		{"torus 6x5x5 r=4", Torus3D(6, 5, 5, 7, 4), 150, 1050, 1800, 0},
		{"10-ary 3-tree", KAryNTree(10, 3, 11), 300, 1100, 2000, 0},
		{"kautz b=5 k=3 r=2", Kautz(5, 3, 7, 2), 150, 1050, 1500, 0},
		{"dragonfly a12 p6 h6 g15", Dragonfly(12, 6, 6, 15), 180, 1080, 1515, 0},
		{"cascade 2 groups", Cascade2Group(), 192, 1536, 3072, 0},
		{"tsubame2.5-like", TsubameLike(), 243, 1407, 3456, 0},
		{"random 125/1000", RandomTopology(rand.New(rand.NewSource(1)), 125, 1000, 8), 125, 1000, 1000, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			st := Describe(tc.tp)
			if st.Switches != tc.switches {
				t.Errorf("switches = %d, want %d", st.Switches, tc.switches)
			}
			if st.Terminals != tc.terminals {
				t.Errorf("terminals = %d, want %d", st.Terminals, tc.terminals)
			}
			diff := st.SSLinks - tc.ssLinks
			if diff < 0 {
				diff = -diff
			}
			if diff > tc.ssLinkTolerance {
				t.Errorf("switch-switch links = %d, want %d (±%d)", st.SSLinks, tc.ssLinks, tc.ssLinkTolerance)
			}
			if !bfs.Connected(tc.tp.Net) {
				t.Error("topology not connected")
			}
		})
	}
}

// TestTsubameWindowedClosAssumption pins the one Table 1 discrepancy to
// its documented cause. Tsubame2.5's production cabling is not public, so
// TsubameLike substitutes a windowed Clos: edge switch i uplinks to the
// 16 spines in the cyclic window i..i+15 (mod 27). That assumption fixes
// the switch-to-switch link count at 216 edges x 16 uplinks = 3,456 —
// +72 links (+2.1%) over the paper's published 3,384, which implies an
// average of 15.67 uplinks per edge switch (3384/216), i.e. the real
// machine cables some edge switches with fewer uplinks. This test pins
// both the exact substitute count and the structural properties the
// window guarantees, so any later "fix" toward 3,384 must consciously
// revisit the cabling model rather than drift.
func TestTsubameWindowedClosAssumption(t *testing.T) {
	const (
		edges     = 216
		spines    = 27
		uplinks   = 16
		published = 3384 // Table 1
	)
	tp := TsubameLike()
	st := Describe(tp)

	// The windowed-Clos count, and its documented offset from Table 1.
	if st.SSLinks != edges*uplinks {
		t.Fatalf("ss links = %d, want %d (216 edges x 16 uplinks)", st.SSLinks, edges*uplinks)
	}
	if st.SSLinks-published != 72 {
		t.Errorf("discrepancy vs. published = %+d links, documented as +72 (+2.1%%)", st.SSLinks-published)
	}

	g := tp.Net
	// Every edge switch has exactly 16 spine uplinks; every spine exactly
	// 16*216/27 = 128 downlinks — the uniformity the published count
	// cannot satisfy (3384 is not divisible by 216).
	spineDeg := make(map[graph.NodeID]int)
	for _, s := range g.Switches() {
		if tp.Tree.Level[s] != 0 {
			continue
		}
		up := 0
		for _, c := range g.Out(s) {
			to := g.Channel(c).To
			if g.IsSwitch(to) {
				up++
				spineDeg[to]++
			}
		}
		if up != uplinks {
			t.Fatalf("edge switch %d has %d uplinks, want %d", s, up, uplinks)
		}
	}
	if len(spineDeg) != spines {
		t.Fatalf("edge switches reach %d spines, want %d", len(spineDeg), spines)
	}
	for sp, deg := range spineDeg {
		if deg != edges*uplinks/spines {
			t.Errorf("spine %d has %d downlinks, want %d", sp, deg, edges*uplinks/spines)
		}
	}
	if published%edges == 0 {
		t.Error("published count became divisible by the edge count; revisit the discrepancy note")
	}

	// The window property that makes the substitute fat-tree routable:
	// any two 16-of-27 cyclic windows overlap (16 > 27/2), so every pair
	// of edge switches shares at least one spine.
	for i := 0; i < edges; i++ {
		for j := i + 1; j < i+spines && j < edges; j++ {
			shared := false
			for u := 0; u < uplinks && !shared; u++ {
				su := (i + u) % spines
				for v := 0; v < uplinks; v++ {
					if su == (j+v)%spines {
						shared = true
						break
					}
				}
			}
			if !shared {
				t.Fatalf("edge windows %d and %d share no spine", i, j)
			}
		}
	}
}

func TestTorusStructure(t *testing.T) {
	tp := Torus3D(4, 4, 3, 4, 1)
	g := tp.Net
	if g.NumSwitches() != 48 {
		t.Fatalf("switches = %d, want 48", g.NumSwitches())
	}
	if g.NumTerminals() != 192 {
		t.Fatalf("terminals = %d, want 192", g.NumTerminals())
	}
	// Every torus switch has degree 6 (x+-, y+-, z+-) + 4 terminals = 10.
	for _, s := range g.Switches() {
		if d := g.Degree(s); d != 10 {
			t.Errorf("switch %d degree = %d, want 10", s, d)
		}
	}
	// Coordinates round-trip.
	for id, c := range tp.Torus.Coord {
		if tp.Torus.SwitchAt[c[0]][c[1]][c[2]] != id {
			t.Errorf("coord mismatch for switch %d", id)
		}
	}
}

// parallelChannels counts the live channels from a to b.
func parallelChannels(g *graph.Network, a, b graph.NodeID) int {
	n := 0
	for _, c := range g.Out(a) {
		if g.Channel(c).To == b {
			n++
		}
	}
	return n
}

func TestTorusRedundancyMultigraph(t *testing.T) {
	tp := Torus3D(3, 3, 3, 0, 4)
	g := tp.Net
	a := tp.Torus.SwitchAt[0][0][0]
	b := tp.Torus.SwitchAt[1][0][0]
	if got := parallelChannels(g, a, b); got != 4 {
		t.Errorf("parallel channels = %d, want 4", got)
	}
}

func TestTorusDimTwoNoDoubleLink(t *testing.T) {
	tp := Torus3D(2, 2, 2, 1, 1)
	g := tp.Net
	a := tp.Torus.SwitchAt[0][0][0]
	b := tp.Torus.SwitchAt[1][0][0]
	if got := parallelChannels(g, a, b); got != 1 {
		t.Errorf("dim-2 ring has %d parallel links, want 1", got)
	}
	// Degree: 3 neighbors + 1 terminal.
	if d := g.Degree(a); d != 4 {
		t.Errorf("degree = %d, want 4", d)
	}
}

func TestKAryNTreeStructure(t *testing.T) {
	tp := KAryNTree(4, 2, 4)
	g := tp.Net
	if g.NumSwitches() != 8 {
		t.Fatalf("switches = %d, want 8", g.NumSwitches())
	}
	// Leaves (level 0) have 4 ups + 4 terminals; roots have 4 downs.
	for _, s := range g.Switches() {
		lvl := tp.Tree.Level[s]
		d := g.Degree(s)
		switch lvl {
		case 0:
			if d != 8 {
				t.Errorf("leaf %d degree = %d, want 8", s, d)
			}
		case 1:
			if d != 4 {
				t.Errorf("root %d degree = %d, want 4", s, d)
			}
		}
	}
	if !bfs.Connected(g) {
		t.Error("tree not connected")
	}
}

func TestDragonflyGlobalLinksConnectGroups(t *testing.T) {
	tp := Dragonfly(4, 2, 2, 9) // full-size dragonfly: g = a*h+1
	if !bfs.Connected(tp.Net) {
		t.Error("dragonfly not connected")
	}
	st := Describe(tp)
	// Local: 9 * C(4,2) = 54; global: 4*2*9/2 = 36.
	if st.SSLinks != 90 {
		t.Errorf("ss links = %d, want 90", st.SSLinks)
	}
}

func TestRandomTopologyDeterministicPerSeed(t *testing.T) {
	a := RandomTopology(rand.New(rand.NewSource(7)), 30, 60, 2)
	b := RandomTopology(rand.New(rand.NewSource(7)), 30, 60, 2)
	var bufA, bufB bytes.Buffer
	if err := Write(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("same seed produced different topologies")
	}
	c := RandomTopology(rand.New(rand.NewSource(8)), 30, 60, 2)
	var bufC bytes.Buffer
	if err := Write(&bufC, c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA.Bytes(), bufC.Bytes()) {
		t.Error("different seeds produced identical topologies")
	}
}

func TestInjectLinkFailuresKeepsConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := Torus3D(4, 4, 4, 2, 1)
	failed, n := InjectLinkFailures(tp, rng, 0.05)
	if n == 0 {
		t.Fatal("no links failed")
	}
	if !bfs.Connected(failed.Net) {
		t.Error("failure injection disconnected the network")
	}
	// Original untouched.
	if st := Describe(tp); st.SSLinks != 192 {
		t.Errorf("original mutated: ss links = %d, want 192", st.SSLinks)
	}
	if st := Describe(failed); st.SSLinks != 192-n {
		t.Errorf("failed copy ss links = %d, want %d", st.SSLinks, 192-n)
	}
}

func TestFailSwitchFig1Network(t *testing.T) {
	tp := Torus3D(4, 4, 3, 4, 1)
	faulty := FailSwitch(tp, tp.Torus.SwitchAt[1][1][1])
	if !bfs.Connected(faulty.Net) {
		t.Error("torus minus one switch should stay connected")
	}
	// 47 working switches (one isolated stub).
	working := 0
	for _, s := range faulty.Net.Switches() {
		if faulty.Net.Degree(s) > 0 {
			working++
		}
	}
	if working != 47 {
		t.Errorf("working switches = %d, want 47", working)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	orig := Torus3D(3, 3, 2, 2, 2)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name {
		t.Errorf("name = %q, want %q", back.Name, orig.Name)
	}
	if back.Net.NumNodes() != orig.Net.NumNodes() {
		t.Errorf("nodes = %d, want %d", back.Net.NumNodes(), orig.Net.NumNodes())
	}
	if back.Net.NumChannels() != orig.Net.NumChannels() {
		t.Errorf("channels = %d, want %d", back.Net.NumChannels(), orig.Net.NumChannels())
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"node 5 switch x\n",                   // non-dense id
		"node 0 gateway x\n",                  // unknown kind
		"node 0 switch a\nlink 0 3\n",         // link out of range
		"frobnicate\n",                        // unknown directive
		"node 0 terminal a\nlink 0 0\n",       // self link
		"node 0 terminal a\nmcastgroup 1\n",   // group without members
		"node 0 terminal a\nmcastgroup 2 0\n", // non-dense group id
		"node 0 terminal a\nmcastgroup 1 7\n", // member out of range
		// mcastgroup is no directive, even on an otherwise well-formed file.
		"node 0 switch s\nnode 1 terminal a\nlink 1 0\nmcastgroup 1 1\n",
	}
	for i, in := range cases {
		if _, err := Read(bytes.NewBufferString(in)); err == nil {
			t.Errorf("case %d: Read accepted malformed input", i)
		}
	}
}

// TestReadSelfLink: a link from a node to itself is refused with its line
// number, like every other malformed line; the builder it used to reach
// panics on it, which took nueroute -topo down.
func TestReadSelfLink(t *testing.T) {
	_, err := Read(bytes.NewBufferString("node 0 switch\nlink 0 0\n"))
	if err == nil || err.Error() != "topology: line 2: self-link" {
		t.Fatalf("Read = %v, want topology: line 2: self-link", err)
	}
}

func TestMesh3DStructure(t *testing.T) {
	tp := Mesh3D(3, 3, 3, 1, 1)
	g := tp.Net
	if tp.Torus.Wrap {
		t.Error("mesh reports Wrap=true")
	}
	// 3D mesh links: 3 * 2*3*3 = 54 (no wrap links).
	if st := Describe(tp); st.SSLinks != 54 {
		t.Errorf("mesh ss links = %d, want 54", st.SSLinks)
	}
	// Corner switch: 3 neighbors + 1 terminal.
	corner := tp.Torus.SwitchAt[0][0][0]
	if d := g.Degree(corner); d != 4 {
		t.Errorf("corner degree = %d, want 4", d)
	}
	// Center switch: 6 neighbors + 1 terminal.
	center := tp.Torus.SwitchAt[1][1][1]
	if d := g.Degree(center); d != 7 {
		t.Errorf("center degree = %d, want 7", d)
	}
	if !bfs.Connected(g) {
		t.Error("mesh not connected")
	}
}

func TestMesh2DNaming(t *testing.T) {
	tp := Mesh2D(4, 4, 1)
	if tp.Name != "mesh-4x4" {
		t.Errorf("name = %q, want mesh-4x4", tp.Name)
	}
	if tp.Net.NumSwitches() != 16 || tp.Net.NumTerminals() != 16 {
		t.Errorf("size = %d/%d, want 16/16", tp.Net.NumSwitches(), tp.Net.NumTerminals())
	}
}

func TestTorusStillWraps(t *testing.T) {
	tp := Torus3D(4, 1, 1, 0, 1)
	g := tp.Net
	a := tp.Torus.SwitchAt[0][0][0]
	d := tp.Torus.SwitchAt[3][0][0]
	if g.FindChannel(d, a) == graph.NoChannel {
		t.Error("torus missing wrap link")
	}
	m := Mesh3D(4, 1, 1, 0, 1)
	ma := m.Torus.SwitchAt[0][0][0]
	md := m.Torus.SwitchAt[3][0][0]
	if m.Net.FindChannel(md, ma) != graph.NoChannel {
		t.Error("mesh has a wrap link")
	}
}
