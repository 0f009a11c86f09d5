package routing_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/ftree"
	"repro/internal/routing/lash"
	"repro/internal/routing/minhop"
	"repro/internal/routing/smart"
	"repro/internal/routing/updn"
	"repro/internal/topology"
)

// hashTables folds a routing result into one FNV-64a digest the way
// core's hashResult does: VC count, per-destination layer, and every
// (switch, destination) next hop.
func hashTables(net *graph.Network, res *routing.Result) uint64 {
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

// TestBaselineTableGoldens pins the forwarding tables of the baseline
// engines, all terminals at 8 VCs. The digests were recorded at commit
// c3d2580, when updn, ftree, smart and routing.DestTree (sssp, dfsssp)
// still popped from the Fibonacci heap; they hold unchanged on the dial
// queue. A zero golden means the engine refuses the fabric (a smart
// impasse) and must keep refusing it. The 8x8x8 row, where DFSSSP weights
// and hence bucket indices grow largest, keeps the engines that finish in
// well under a second; the others (mupdn 3 s, dfsssp 2.5 s to run out of
// VCs, lashtor 6 s, smart 55 s to its impasse) were recorded equal on
// both queues as well and left out for the suite's running time.
func TestBaselineTableGoldens(t *testing.T) {
	degraded := func(tp *topology.Topology, seed int64) *topology.Topology {
		out, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(seed)), 0.12)
		return out
	}
	random := func() *topology.Topology {
		return topology.RandomTopology(rand.New(rand.NewSource(42)), 40, 160, 4)
	}
	cases := []struct {
		name   string
		tp     *topology.Topology
		golden map[string]uint64
	}{
		{"torus-4x4x3", topology.Torus3D(4, 4, 3, 1, 1), map[string]uint64{
			"updn": 0xbb719f70e626e933, "mupdn": 0x67c8f0cd7950e819, "sssp": 0x1c6cb11616f8738a, "minhop": 0x5d70d34c17043cda,
			"dfsssp": 0xdb9934ddde88bcae, "lashtor": 0x60e5118c96cf9a7d, "smart": 0x053390e3c75c1813}},
		{"torus-4x4x3-degraded", degraded(topology.Torus3D(4, 4, 3, 1, 1), 11), map[string]uint64{
			"updn": 0x9b5d50b4aaffd617, "mupdn": 0xc9ac79e68e72da1e, "sssp": 0xbd5b9647574643ec, "minhop": 0x129328a50f59b49f,
			"dfsssp": 0x44090f0de89bf630, "lashtor": 0xcd886704d9a8cb6e, "smart": 0}},
		{"dragonfly-a4h2g9", topology.Dragonfly(4, 2, 2, 9), map[string]uint64{
			"updn": 0xd87de4d5e7e59834, "mupdn": 0x2a864f87064542e5, "sssp": 0x0a93ef7ac7f7b8a8, "minhop": 0xeef319af3235d08c,
			"dfsssp": 0xe68cf4d000f1c6c2, "lashtor": 0x2596d20def886f17, "smart": 0}},
		{"dragonfly-a4h2g9-degraded", degraded(topology.Dragonfly(4, 2, 2, 9), 12), map[string]uint64{
			"updn": 0xa7adeb3a319d5594, "mupdn": 0x745fbad91557dee5, "sssp": 0xefecaebf81d3f369, "minhop": 0xa091cacd4154b394,
			"dfsssp": 0x12feb177f2e297f3, "lashtor": 0x419acf38e8161f0e, "smart": 0}},
		{"fattree-4ary3", topology.KAryNTree(4, 3, 4), map[string]uint64{
			"updn": 0x8274b000d9754724, "mupdn": 0x139e95d02fc810cd, "sssp": 0x7dbe54dd74800424, "minhop": 0x226bacd62ae33424,
			"dfsssp": 0x7dbe54dd74800424, "lashtor": 0x8588ae2c3472a824, "smart": 0x8588ae2c3472a824, "ftree": 0x226bacd62ae33424}},
		{"fattree-4ary3-degraded", degraded(topology.KAryNTree(4, 3, 4), 13), map[string]uint64{
			"updn": 0xfd2a319a0f2b94a4, "mupdn": 0xbd35ba575e4e624d, "sssp": 0xb36af432da0af096, "minhop": 0x75f701858a1f3be7,
			"dfsssp": 0x86d95f42047b9235, "lashtor": 0x804de556c1dc9124, "smart": 0x20e3a77ed2595424, "ftree": 0x8df0aa6cc7ea79cc}},
		{"kautz-b3k2", topology.Kautz(3, 2, 2, 1), map[string]uint64{
			"updn": 0x2ae00fd59a7f9bc4, "mupdn": 0xbff9f3e7dfba866d, "sssp": 0x562883fd6b10dd8f, "minhop": 0xcde32605a90e9c02,
			"dfsssp": 0x3101c57d1c0cddac, "lashtor": 0x1d05ddb64ae73364, "smart": 0x38d4853fa0ca64a4}},
		{"kautz-b3k2-degraded", degraded(topology.Kautz(3, 2, 2, 1), 14), map[string]uint64{
			"updn": 0xeef852c3719f6664, "mupdn": 0x2df0520d0e16ba0d, "sssp": 0xafa6727c44a888b4, "minhop": 0xe9f55896c635c312,
			"dfsssp": 0xc5805fd6e4cc6697, "lashtor": 0x32b730bc764a58c4, "smart": 0x8e2bb9f4b045a464}},
		{"random-40-160", random(), map[string]uint64{
			"updn": 0xd74072fbb9b55ae4, "mupdn": 0x39bc1dd832abbc7d, "sssp": 0xc4ed1c0bbb2501d9, "minhop": 0x32bc717aef7aacd2,
			"dfsssp": 0x164506b80fbcca63, "lashtor": 0xc7dd3ea064f1b177, "smart": 0}},
		{"random-40-160-degraded", degraded(random(), 15), map[string]uint64{
			"updn": 0x11ae67f6dcc64354, "mupdn": 0x7c1a024d5a61e07d, "sssp": 0x1aceb5bc32219a15, "minhop": 0xf8ee2e395deebd78,
			"dfsssp": 0xdabafcf68e245f10, "lashtor": 0x6e038b95bdadaf07, "smart": 0x772c8a4eb8d337c4}},
		{"torus-8x8x8", topology.Torus3D(8, 8, 8, 1, 1), map[string]uint64{
			"updn": 0x4d805efbb6ef0760, "sssp": 0x9f20561069fae7ce, "minhop": 0x0778cf50931e0251}},
	}
	for _, tc := range cases {
		engines := []routing.Engine{updn.Engine{}, updn.MultiEngine{}, minhop.SSSP{}, minhop.MinHop{},
			dfsssp.Engine{}, lash.TOREngine{}, smart.Engine{}}
		if tc.tp.Tree != nil {
			engines = append(engines, ftree.Engine{Level: tc.tp.Tree.Level})
		}
		for _, e := range engines {
			want, ok := tc.golden[e.Name()]
			if !ok {
				continue
			}
			t.Run(tc.name+"/"+e.Name(), func(t *testing.T) {
				res, err := e.Route(tc.tp.Net, tc.tp.Net.Terminals(), 8)
				if want == 0 {
					if err == nil {
						t.Fatalf("routed a fabric it refused when the goldens were recorded")
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := hashTables(tc.tp.Net, res); got != want {
					t.Errorf("table digest %#016x, want golden %#016x", got, want)
				}
			})
		}
	}
}
