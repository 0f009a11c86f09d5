package repro

// The golden wall: the routing core's contract is BIT-IDENTICAL output —
// same forwarding tables, same virtual-layer assignment, same final CDG
// states — for every topology family and every worker count. The
// constants below were recorded at commit c3d2580, where the since-deleted
// second core path (Network-method adjacency + Fibonacci heap) and the
// flat path (CSR + dial queue) were both asserted equal to them.

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle/stress"
	"repro/internal/topology"
)

// flatCase is one topology instance of the golden wall.
type flatCase struct {
	name string
	tp   *topology.Topology
	vcs  int
	// hash is the hashRouting digest and cdg the per-layer LayerCDG
	// digests at Seed=1.
	hash uint64
	cdg  []uint64
}

// flatCoreCases builds the topology matrix: every stress-harness family,
// healthy and degraded. All draws use pinned seeds, so the instances —
// and therefore the asserted hashes — are stable across runs. (Recorded
// on linux/amd64; see core's determinismCases for the FMA caveat.)
func flatCoreCases(t testing.TB) []flatCase {
	degraded := func(tp *topology.Topology, seed int64) *topology.Topology {
		out, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(seed)), 0.12)
		return out
	}
	return []flatCase{
		{"torus-4x4x3", topology.Torus3D(4, 4, 3, 1, 1), 4,
			0x83ebf30905b7fd55, []uint64{0x0d64ad951ea067e1, 0x5eb5793a673cc665, 0x12df8b8e7817577f, 0x856e124260c7dd2b}},
		{"torus-4x4x3-degraded", degraded(topology.Torus3D(4, 4, 3, 1, 1), 11), 4,
			0x6df223eff1f17969, []uint64{0xc3e83d887cc42826, 0xf0e962f32c2c4c06, 0x47cfb09bf20fc31b, 0x5f502123bef5f845}},
		{"dragonfly-a4h2g9", topology.Dragonfly(4, 2, 2, 9), 4,
			0x728bc573d2f78f12, []uint64{0x2b43ed46ed4f63ac, 0xdc51a6873d13c04d, 0x8b7b3c9ced024960, 0xc7ee8f9575287a20}},
		{"dragonfly-a4h2g9-degraded", degraded(topology.Dragonfly(4, 2, 2, 9), 12), 4,
			0x6adb749dd0579921, []uint64{0x41962b809716618e, 0x1c450cd0f4caa041, 0x9dd8986ed70d8c06, 0xaa981f1dda775e68}},
		{"fattree-2ary3", topology.KAryNTree(2, 3, 2), 2,
			0x60890e1f7404ad47, []uint64{0xbef807176c7fa6fe, 0x224e67a8961a3aee}},
		{"fattree-2ary3-degraded", degraded(topology.KAryNTree(2, 3, 2), 13), 2,
			0x49482d7bf4ded854, []uint64{0xa5b6e87ee4268a8e, 0x004edd47ea299d66}},
		{"kautz-b3k2", topology.Kautz(3, 2, 1, 1), 3,
			0x9c5d3adf44ad1a9a, []uint64{0x6326b038908ff728, 0x9780e221ab62a807, 0x34af6c20206c5e6b}},
		{"kautz-b3k2-degraded", degraded(topology.Kautz(3, 2, 1, 1), 14), 3,
			0x99f14c6c7f0e7dde, []uint64{0xfe59e789005f670e, 0x3c46c26b5542c895, 0x6ab5d0bb3a70e132}},
		{"fullmesh-8", topology.FullMesh(8, 1), 1,
			0x182318750a3fdee4, []uint64{0x4d2b0bedf696fb17}},
		{"fullmesh-8-degraded", degraded(topology.FullMesh(8, 1), 15), 1,
			0xf6d344d47ec27b15, []uint64{0x141ec7c0a7cefcd4}},
		{"regular-12x3", stress.RandomRegular(rand.New(rand.NewSource(16)), 12, 3, 1), 2,
			0x919b0786e4e607a4, []uint64{0x07a8023c75e75707, 0x69f33bf1185607d6}},
		{"regular-12x3-degraded", degraded(stress.RandomRegular(rand.New(rand.NewSource(17)), 12, 3, 1), 18), 2,
			0x0c00829c9e334331, []uint64{0x6e08e1fa3f98e16c, 0x9a7626a251396aff}},
	}
}

// hashRouting digests everything the control plane would install: VC
// count, per-destination layer and every (switch, destination) next hop.
func hashRouting(net *graph.Network, res *RoutingResult) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	put(uint64(res.VCs))
	for _, l := range res.DestLayer {
		put(uint64(l))
	}
	for n := 0; n < net.NumNodes(); n++ {
		if !net.IsSwitch(graph.NodeID(n)) {
			continue
		}
		for _, d := range res.Table.Dests() {
			put(uint64(uint32(res.Table.Next(graph.NodeID(n), d))))
		}
	}
	return h.Sum64()
}

// routeHashed routes tp's terminals and returns the table hash plus the
// per-layer CDG state digests.
func routeHashed(t *testing.T, tc flatCase, opts core.Options) (uint64, []uint64) {
	t.Helper()
	dests := tc.tp.Net.Terminals()
	if len(dests) == 0 {
		dests = tc.tp.Net.Switches()
	}
	res, err := core.New(opts).Route(tc.tp.Net, dests, tc.vcs)
	if err != nil {
		t.Fatalf("%s: route failed: %v", tc.name, err)
	}
	if res.LayerCDG == nil {
		t.Fatalf("%s: result carries no LayerCDG digests", tc.name)
	}
	return hashRouting(tc.tp.Net, res), res.LayerCDG
}

// TestFlatCoreEquivalence routes every family across worker counts 1/2/8
// and asserts that forwarding tables (golden hash) and final CDG
// edge/vertex states (per-layer digests) are the recorded ones everywhere.
func TestFlatCoreEquivalence(t *testing.T) {
	for _, tc := range flatCoreCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 8} {
				opts := core.DefaultOptions()
				opts.Seed = 1
				opts.Workers = workers
				hash, layers := routeHashed(t, tc, opts)
				if hash != tc.hash {
					t.Fatalf("workers=%d: table hash %#016x, want golden %#016x", workers, hash, tc.hash)
				}
				if len(layers) != len(tc.cdg) {
					t.Fatalf("workers=%d: %d layers, want %d", workers, len(layers), len(tc.cdg))
				}
				for l := range layers {
					if layers[l] != tc.cdg[l] {
						t.Fatalf("workers=%d layer %d: CDG digest %#016x, want golden %#016x",
							workers, l, layers[l], tc.cdg[l])
					}
				}
			}
		})
	}
}
