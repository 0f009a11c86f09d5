package oracle

import (
	"math"
	"testing"

	"repro/internal/bfs"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestStampsDoNotWrap: the per-walk loop stamp and the per-destination
// settled stamp are bumped once per pair, so an all-to-all of 46,341
// terminals takes them past 2^31 and one of 65,536 past 2^32. Started
// just below either, a 32-bit stamp comes back to values still sitting in
// the mark slices — at 2^32 to the zero every untouched node holds — and
// a sound table reads as a forwarding loop or as already settled. The
// stamps are 64 bits wide: the certificate is the one counted from zero.
func TestStampsDoNotWrap(t *testing.T) {
	net := topology.Ring(6, 2).Net
	tree := bfs.SpanningTree(net, 0)
	tbl := routing.NewTable(net, net.Terminals())
	for _, d := range tbl.Dests() {
		for _, s := range net.Switches() {
			tbl.Set(s, d, tree.TreePath(s, d)[0])
		}
	}
	res := &routing.Result{Table: tbl, VCs: 1}
	want, err := Certify(net, res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []int64{math.MaxInt32 - 3, math.MaxUint32 - 3} {
		cert := &Certificate{Layers: 1}
		dg := newDepGraph(net.NumChannels(), 1)
		w := &tableWalker{}
		w.reset(net, res, cert, dg)
		w.pair, w.stamp = start, start
		if err := w.walkAll(DefaultSources(net), sweepReach(net, tbl.Dests()), allLanes); err != nil {
			t.Fatalf("stamps from %d: %v", start, err)
		}
		cert.Deps = dg.numDeps()
		if cert.Pairs != want.Pairs || cert.MaxHops != want.MaxHops || cert.Deps != want.Deps || cert.Steps != want.Steps {
			t.Errorf("stamps from %d: %+v, want %+v", start, *cert, *want)
		}
		if w.pair != start+int64(want.Pairs) {
			t.Errorf("stamps from %d: %d walks stamped, want %d", start, w.pair-start, want.Pairs)
		}
	}
}
