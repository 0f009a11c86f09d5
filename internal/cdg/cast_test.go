package cdg

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestOverlayUnionSeesUsedEdges: a cycle closed jointly by used unicast
// edges and overlay edges must be refused, even though neither side
// alone is cyclic.
func TestOverlayUnionSeesUsedEdges(t *testing.T) {
	tp := topology.Ring(3, 0)
	g := tp.Net
	d := NewComplete(g)
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	c20 := g.FindChannel(2, 0)
	d.SeedChannel(c01)
	if !tryUse(d, c01, c12) {
		t.Fatal("unicast edge (c01,c12) rejected on empty CDG")
	}
	o := NewOverlay(d)
	if !o.TryAddDep(DepT, c12, c20) {
		t.Fatal("overlay edge (c12,c20) refused on acyclic union")
	}
	if o.TryAddDep(DepT, c20, c01) {
		t.Fatal("cycle through one used edge and two overlay edges was admitted")
	}
	if o.Blocked != 1 {
		t.Errorf("Blocked = %d, want 1", o.Blocked)
	}
	if !o.UnionAcyclic() {
		t.Error("union cyclic despite refusal")
	}
}

// TestOverlayVDeps: V-type edges connect two channels leaving the same
// switch — pairs the complete CDG has no edge for — and still obey the
// union acyclicity check.
func TestOverlayVDeps(t *testing.T) {
	tp := topology.Ring(4, 0)
	g := tp.Net
	d := NewComplete(g)
	// c10 and c12 both leave switch 1: a branch-contention pair.
	c10 := g.FindChannel(1, 0)
	c12 := g.FindChannel(1, 2)
	if d.EdgeID(c10, c12) >= 0 {
		t.Fatalf("test premise broken: complete CDG has an edge c10 -> c12")
	}
	o := NewOverlay(d)
	if !o.TryAddDep(DepV, c10, c12) {
		t.Fatal("V-dep between sibling outputs refused on empty overlay")
	}
	if o.VDeps != 1 {
		t.Errorf("VDeps = %d, want 1", o.VDeps)
	}
	// A committed edge is re-admitted without a search.
	if searches := o.CycleSearches; !o.TryAddDep(DepV, c10, c12) || o.CycleSearches != searches || o.VDeps != 1 {
		t.Error("committed V-dep not recognised on re-admission")
	}
	// The mirror-image wait would be an immediate 2-cycle.
	if o.TryAddDep(DepV, c12, c10) {
		t.Fatal("opposing V-dep admitted — instant circular wait")
	}
	if !o.UnionAcyclic() {
		t.Error("union cyclic after refusing the opposing V-dep")
	}
}

// TestOverlayDedupAndSelf: re-adding a committed edge succeeds without a
// new cycle search; self-dependencies are always refused.
func TestOverlayDedupAndSelf(t *testing.T) {
	tp := topology.Ring(4, 0)
	g := tp.Net
	d := NewComplete(g)
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	o := NewOverlay(d)
	if o.TryAddDep(DepT, c01, c01) {
		t.Fatal("self-dependency admitted")
	}
	if !o.TryAddDep(DepT, c01, c12) {
		t.Fatal("first add refused")
	}
	searches := o.CycleSearches
	if !o.TryAddDep(DepT, c01, c12) {
		t.Fatal("duplicate add refused")
	}
	if o.CycleSearches != searches {
		t.Error("duplicate add ran a cycle search")
	}
	if o.TDeps != 1 {
		t.Errorf("TDeps = %d, want 1", o.TDeps)
	}
}

// TestOverlayPureCastCycle: a cycle built entirely from overlay edges
// (no unicast edges at all) is refused on the closing edge.
func TestOverlayPureCastCycle(t *testing.T) {
	tp := topology.Ring(3, 0)
	g := tp.Net
	d := NewComplete(g)
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	c20 := g.FindChannel(2, 0)
	o := NewOverlay(d)
	if !o.TryAddDep(DepT, c01, c12) || !o.TryAddDep(DepT, c12, c20) {
		t.Fatal("acyclic overlay chain refused")
	}
	if o.TryAddDep(DepT, c20, c01) {
		t.Fatal("pure-overlay cycle admitted")
	}
	if !o.UnionAcyclic() {
		t.Error("union reported cyclic")
	}
	if o.TDeps != 2 || o.Blocked != 1 {
		t.Errorf("TDeps = %d, Blocked = %d, want 2, 1", o.TDeps, o.Blocked)
	}
}

// TestOverlayAcyclicityInvariant floods a small union graph with every
// candidate dependency and checks that whatever the overlay admitted
// stays acyclic — the safety property tree construction relies on.
func TestOverlayAcyclicityInvariant(t *testing.T) {
	tp := topology.Ring(6, 1)
	g := tp.Net
	d := NewComplete(g)
	o := NewOverlay(d)
	admitted, refused := 0, 0
	for a := 0; a < g.NumChannels(); a++ {
		for _, bc := range []int{(a + 3) % g.NumChannels(), (a + 7) % g.NumChannels()} {
			ca, cb := graph.ChannelID(a), graph.ChannelID(bc)
			if ca == cb {
				continue
			}
			if o.TryAddDep(DepKind(a%2), ca, cb) {
				admitted++
			} else {
				refused++
			}
			if !o.UnionAcyclic() {
				t.Fatalf("union cyclic after admitting (%d,%d)", ca, cb)
			}
		}
	}
	if admitted == 0 || refused == 0 {
		t.Errorf("flood admitted %d / refused %d — the check never bit", admitted, refused)
	}
}
