package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// hashResult folds a routing result into one FNV-64a digest: VC count,
// per-destination layer assignment, and every (switch, destination) next
// hop in deterministic order. Two results hash equal iff their forwarding
// behavior is identical.
func hashResult(net *graph.Network, res *routing.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(res.VCs))
	for _, l := range res.DestLayer {
		put(int64(l))
	}
	for _, s := range net.Switches() {
		for _, d := range res.Table.Dests() {
			put(int64(res.Table.Next(s, d)))
		}
	}
	return h.Sum64()
}

// determinismCases are the fixed-seed topologies of the golden-hash
// regression; the goldens pin the exact forwarding tables of the flat
// routing core, on any worker count. Re-recorded when the (key, item)
// queue tie-break contract and the aggregated escape weight update
// landed — both deliberately changed tie resolution.
// (Recorded on linux/amd64; Go's optional FMA contraction on other
// architectures could shift a betweenness tie and hence the hash — the
// cross-worker equality check is the portable invariant.)
var determinismCases = []struct {
	name   string
	build  func() *topology.Topology
	seed   int64
	vcs    int
	golden uint64
}{
	{
		name:   "torus-4x4x3",
		build:  func() *topology.Topology { return topology.Torus3D(4, 4, 3, 2, 1) },
		seed:   1,
		vcs:    4,
		golden: 0x8e274da472b118fe,
	},
	{
		name:   "dragonfly-a4h2g9",
		build:  func() *topology.Topology { return topology.Dragonfly(4, 2, 2, 9) },
		seed:   7,
		vcs:    3,
		golden: 0xdbfbd3ecf045d5b5,
	},
	{
		name:   "random-40sw",
		build:  func() *topology.Topology { return topology.RandomTopology(rand.New(rand.NewSource(42)), 40, 160, 4) },
		seed:   5,
		vcs:    2,
		golden: 0x7a6064572214654f,
	},
}

// TestDeterministicAcrossWorkers: for each fixed-seed topology the route
// tables must be hash-identical across Workers = 1, 2, 8 — the bounded
// pool, the sharded betweenness reduction and the pre-drawn layer seeds
// make the output a pure function of (topology, seed, vcs).
func TestDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.build()
			dests := tp.Net.Terminals()
			var ref uint64
			for i, workers := range []int{1, 2, 8} {
				opts := DefaultOptions()
				opts.Seed = tc.seed
				opts.Workers = workers
				res, err := New(opts).Route(tp.Net, dests, tc.vcs)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				h := hashResult(tp.Net, res)
				if i == 0 {
					ref = h
					continue
				}
				if h != ref {
					t.Fatalf("workers=%d produced hash %#016x, want %#016x (workers=1)", workers, h, ref)
				}
			}
			if tc.golden != 0 && ref != tc.golden {
				t.Errorf("golden hash regressed: got %#016x, want %#016x", ref, tc.golden)
			}
		})
	}
}
