package graph

import "testing"

// TestCloneAllocsConstant pins the flat Clone: a clone copies only what a
// flip writes (OutCh, InCh, Failed and the two live-end arrays) and shares
// everything else, so it costs a constant number of allocations whatever
// the node count — the repair path clones per churn event.
func TestCloneAllocsConstant(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		g := buildRing(t, n)
		allocs := testing.AllocsPerRun(20, func() {
			_ = g.Clone()
		})
		// Exactly 6 (the struct and the five copied arrays).
		if allocs != 6 {
			t.Errorf("ring-%d: Clone did %.0f allocs, want 6", n, allocs)
		}
	}
}

// TestSetChannelFailedAllocsZero pins the in-place flip: failing a duplex
// link and restoring it moves channels within their nodes' ranges and
// allocates nothing.
func TestSetChannelFailedAllocsZero(t *testing.T) {
	g := buildRing(t, 32).Clone()
	c := g.Out(0)[0]
	allocs := testing.AllocsPerRun(20, func() {
		g.SetChannelFailed(c, true)
		g.SetChannelFailed(c, false)
	})
	if allocs != 0 {
		t.Errorf("SetChannelFailed fail+restore did %.0f allocs, want 0", allocs)
	}
}
