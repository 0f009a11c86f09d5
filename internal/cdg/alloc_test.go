package cdg

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestArenaReuseAllocsNearZero pins the CDG arena free list: after a
// warm-up build, a NewComplete/Release cycle on the same-sized network
// must reuse the released arrays instead of reallocating them. Fabric
// repairs rebuild a layer CDG per attempt, and those rebuilds used to
// pay the full allocation bill every time.
//
// AllocsPerRun performs its own warm-up invocation before measuring; the
// bound is a small constant rather than a strict zero.
func TestArenaReuseAllocsNearZero(t *testing.T) {
	net := topology.Torus3D(4, 4, 3, 1, 1).Net
	NewComplete(net).Release()

	allocs := testing.AllocsPerRun(50, func() {
		NewComplete(net).Release()
	})
	if allocs > 2 {
		t.Errorf("warm NewComplete+Release did %.1f allocs per cycle, want <= 2", allocs)
	}
}

// TestArenaReuseStateIsFresh guards the reuse against the classic arena
// bug: a recycled Graph must look exactly like a freshly built one — no
// used edges, no omega marks, no leftover DSU groups — even though the
// visited epoch is carried across reuse instead of being cleared.
func TestArenaReuseStateIsFresh(t *testing.T) {
	net := fig2Net()
	d := NewComplete(net)
	// Dirty it: use some edges so chOmega/edOmega/used lists are populated.
	out0 := net.Out(0)[0]
	d.SeedChannel(out0)
	for i, nxt := range d.Succ(out0) {
		if !d.TryUseEdgeByID(d.SuccBase(out0)+int32(i), out0, nxt) {
			t.Fatalf("seed edge rejected")
		}
		break
	}
	d.Release()

	d2 := NewComplete(net)
	defer d2.Release()
	for c := 0; c < net.NumChannels(); c++ {
		if st := d2.ChannelState(graph.ChannelID(c)); st != Unused {
			t.Fatalf("recycled arena: channel %d state = %v, want Unused", c, st)
		}
	}
	for e := 0; e < d2.NumEdges(); e++ {
		if st := d2.EdgeState(int32(e)); st != Unused {
			t.Fatalf("recycled arena: edge %d state = %v, want Unused", e, st)
		}
	}
	if !d2.UsedAcyclic() {
		t.Fatal("recycled arena reports a cycle among zero used edges")
	}
}
