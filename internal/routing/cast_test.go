package routing

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

func TestCastGroupOutOrder(t *testing.T) {
	g := &CastGroup{ID: 1}
	sw := graph.NodeID(3)
	for _, c := range []graph.ChannelID{9, 2, 5, 2, 7} { // one duplicate
		g.AddOut(sw, c)
	}
	want := []graph.ChannelID{2, 5, 7, 9}
	if got := g.Outs(sw); !reflect.DeepEqual(got, want) {
		t.Errorf("Outs = %v, want %v (ascending, deduplicated)", got, want)
	}
	if g.TreeEdges() != 4 {
		t.Errorf("TreeEdges = %d, want 4", g.TreeEdges())
	}
	g.RemoveOut(sw, 5)
	want = []graph.ChannelID{2, 7, 9}
	if got := g.Outs(sw); !reflect.DeepEqual(got, want) {
		t.Errorf("after RemoveOut: Outs = %v, want %v", got, want)
	}
	g.RemoveOut(sw, 42) // absent: no-op
	if g.TreeEdges() != 3 {
		t.Errorf("TreeEdges after removals = %d, want 3", g.TreeEdges())
	}
}

func TestCastTable(t *testing.T) {
	tb := NewCastTable()
	tb.Add(&CastGroup{ID: 3})
	tb.Add(&CastGroup{ID: 1})
	tb.Add(&CastGroup{ID: 2})
	if got, want := tb.IDs(), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("IDs = %v, want %v", got, want)
	}
	if tb.NumGroups() != 3 {
		t.Errorf("NumGroups = %d, want 3", tb.NumGroups())
	}
	if tb.Group(2) == nil || tb.Group(2).ID != 2 {
		t.Error("Group(2) lookup failed")
	}
	if tb.Group(9) != nil {
		t.Error("Group(9) returned a phantom group")
	}
	// Replacement keeps the id list duplicate-free.
	tb.Add(&CastGroup{ID: 2, Source: 7})
	if tb.NumGroups() != 3 || tb.Group(2).Source != 7 {
		t.Error("re-Add did not replace the group in place")
	}
}

func TestCastTableAddPanicsOnBadID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add accepted group id 0 (ids are 1-based)")
		}
	}()
	NewCastTable().Add(&CastGroup{ID: 0})
}
