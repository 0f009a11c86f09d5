package core

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// treeCopy is a deep copy of a spanning tree's contents.
type treeCopy struct {
	root   graph.NodeID
	dist   []int32
	parent []graph.ChannelID
	order  []graph.NodeID
	member []bool
}

func copyPlan(net *graph.Network, p Plan) treeCopy {
	c := treeCopy{
		root:   p.Root,
		dist:   slices.Clone(p.Tree.Dist),
		parent: slices.Clone(p.Tree.Parent),
		order:  slices.Clone(p.Tree.Order),
		member: make([]bool, net.NumChannels()),
	}
	for ch := range c.member {
		c.member[ch] = p.Tree.IsTreeChannel(graph.ChannelID(ch))
	}
	return c
}

// TestRecycledTreeNeverEscapes: the engine recycles the spanning trees it
// builds and drops, but a Plan that RepairLayer returns is the caller's.
// Each returned tree is copied at return time and must read the same
// after 20 further cold routes and repairs on fabrics of other sizes
// (16³, 4³, 16³, ...), which draw trees from the free list and hand them
// back, the repairs' widened rungs included. The same routes must give
// the tables of routes on fresh engines, and the repairs the table of
// the first.
func TestRecycledTreeNeverEscapes(t *testing.T) {
	big, bigDests := coldShapes[1].build()
	small := topology.Torus3D(4, 4, 4, 1, 1).Net
	smallDests := small.Terminals()
	opts := DefaultOptions()
	route := func(eng *Nue, net *graph.Network, dests []graph.NodeID) uint64 {
		res, err := eng.Route(net, dests, coldVCs)
		if err != nil {
			t.Fatal(err)
		}
		return hashResult(net, res)
	}
	wantBig := route(New(opts), big, bigDests)
	wantSmall := route(New(opts), small, smallDests)

	// TestRepairLadder's torus4x4x4/116: its layers end on rungs 4, 1, 1
	// and 3, so two of the four repairs drop a narrow plan.
	eng := New(opts)
	res, err := eng.Route(small, smallDests, coldVCs)
	if err != nil {
		t.Fatal(err)
	}
	faulty := small.Clone()
	faulty.SetChannelFailed(116, true)
	base := res.Table.Clone(faulty)
	repair, kept, _ := partitionByUse(faulty, base, res.DestLayer)
	layers := make([]int, 0, len(repair))
	for l := range repair {
		layers = append(layers, int(l))
	}
	sort.Ints(layers)
	repairLayers := func() ([]Plan, uint64) {
		table := base.Clone(faulty)
		var plans []Plan
		widened := 0
		for _, l := range layers {
			st, err := eng.RepairLayer(RepairRequest{Net: faulty, Table: table, Repair: repair[uint8(l)], Kept: kept[uint8(l)]})
			if err != nil {
				t.Fatalf("layer %d: %v", l, err)
			}
			if st.Rung >= 3 {
				widened++
			}
			plans = append(plans, st.Plan)
		}
		if widened == 0 {
			t.Fatal("no repair widened to its whole layer")
		}
		return plans, table.Digest()
	}
	plans, wantRepair := repairLayers()
	copies := make([]treeCopy, len(plans))
	for i, p := range plans {
		copies[i] = copyPlan(faulty, p)
	}

	for i := range 20 {
		switch i % 3 {
		case 0:
			if got := route(eng, big, bigDests); got != wantBig {
				t.Fatalf("op %d: 16³ route digest %#x, a fresh engine's %#x", i, got, wantBig)
			}
		case 1:
			if got := route(eng, small, smallDests); got != wantSmall {
				t.Fatalf("op %d: 4³ route digest %#x, a fresh engine's %#x", i, got, wantSmall)
			}
		case 2:
			if _, got := repairLayers(); got != wantRepair {
				t.Fatalf("op %d: repaired table digest %#x, the first repair's %#x", i, got, wantRepair)
			}
		}
	}
	for i, p := range plans {
		got, want := copyPlan(faulty, p), copies[i]
		switch {
		case got.root != want.root:
			t.Errorf("plan %d: root %d, %d when returned", i, got.root, want.root)
		case !slices.Equal(got.dist, want.dist):
			t.Errorf("plan %d: the tree's Dist changed after it was returned", i)
		case !slices.Equal(got.parent, want.parent):
			t.Errorf("plan %d: the tree's Parent changed after it was returned", i)
		case !slices.Equal(got.order, want.order):
			t.Errorf("plan %d: the tree's Order changed after it was returned", i)
		case !slices.Equal(got.member, want.member):
			t.Errorf("plan %d: the tree's channels changed after it was returned", i)
		}
	}
}
