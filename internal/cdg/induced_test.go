package cdg

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// induced builds an Induced over 8 channels from (a, b) pairs, each
// added once with Count 1 and user k (its position in deps).
func induced(deps ...[2]graph.ChannelID) *Induced {
	g := new(Induced)
	g.Reset(8)
	for k, e := range deps {
		d := g.Dep(e[0], e[1])
		d.Count++
		d.Users = append(d.Users, int32(k))
	}
	return g
}

// TestInducedFindCycleOrder: the search starts at the lowest channel,
// follows successors in insertion order (ascending after
// SortSuccessors), and returns the cycle from the closing dependency's
// head through the closing dependency.
func TestInducedFindCycleOrder(t *testing.T) {
	// 0 -> 5 -> 1 -> 2 -> 3 -> 1, and 0 -> 4 -> 0 added after 0 -> 5.
	g := induced([2]graph.ChannelID{0, 5}, [2]graph.ChannelID{5, 1}, [2]graph.ChannelID{1, 2},
		[2]graph.ChannelID{2, 3}, [2]graph.ChannelID{3, 1}, [2]graph.ChannelID{0, 4}, [2]graph.ChannelID{4, 0})
	want := [][2]graph.ChannelID{{1, 2}, {2, 3}, {3, 1}}
	if got := g.FindCycle(); !slices.Equal(got, want) {
		t.Fatalf("insertion order: cycle %v, want %v", got, want)
	}
	g.SortSuccessors()
	want = [][2]graph.ChannelID{{0, 4}, {4, 0}}
	if got := g.FindCycle(); !slices.Equal(got, want) {
		t.Fatalf("ascending order: cycle %v, want %v", got, want)
	}
	// A dependency no route holds any more is not followed.
	g.Dep(4, 0).Count--
	g.Dep(3, 1).Count--
	if got := g.FindCycle(); got != nil {
		t.Fatalf("cycle %v over dependencies with Count 0", got)
	}
	if d := g.Dep(3, 1); d.Count != 0 || !slices.Equal(d.Users, []int32{4}) {
		t.Fatalf("a dropped dependency keeps its users: got Count %d Users %v", d.Count, d.Users)
	}
}

// TestInducedReaches: only dependencies with Count > 0 are followed, and
// a channel reaches itself.
func TestInducedReaches(t *testing.T) {
	g := induced([2]graph.ChannelID{0, 1}, [2]graph.ChannelID{1, 2}, [2]graph.ChannelID{2, 3})
	if !g.Reaches(0, 3) || !g.Reaches(5, 5) || g.Reaches(3, 0) {
		t.Fatal("reachability over a path is wrong")
	}
	g.Dep(1, 2).Count = 0
	if g.Reaches(0, 3) {
		t.Fatal("Reaches followed a dependency with Count 0")
	}
}

// TestInducedResetKeepsArrays: a reset graph is empty, and rebuilding
// it and searching it again allocates nothing.
func TestInducedResetKeepsArrays(t *testing.T) {
	deps := [][2]graph.ChannelID{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	g := induced(deps...)
	g.Reset(8)
	if d := g.Dep(0, 1); d.Count != 0 || len(d.Users) != 0 || g.FindCycle() != nil {
		t.Fatalf("reset graph kept dependency (0, 1): %+v", *d)
	}
	allocs := testing.AllocsPerRun(10, func() {
		g.Reset(8)
		for k, e := range deps {
			d := g.Dep(e[0], e[1])
			d.Count++
			d.Users = append(d.Users, int32(k))
		}
		if !g.Reaches(0, 4) || g.FindCycle() != nil {
			t.Fatal("rebuilt path graph is wrong")
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm rebuild and search allocated %v times, want 0", allocs)
	}
}
