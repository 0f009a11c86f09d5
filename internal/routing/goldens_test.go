package routing_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/ftree"
	"repro/internal/routing/lash"
	"repro/internal/routing/minhop"
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

// hashLayers folds what hashTables leaves out of a per-pair result: every
// PairLayer row, where DFSSSP's and LASH's layering lives.
func hashLayers(res *routing.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, row := range res.PairLayer {
		put(int64(len(row)))
		for _, l := range row {
			put(int64(l))
		}
	}
	return h.Sum64()
}

// hashVLs folds the lane every service level 0..7 takes on every channel,
// which neither digest above sees (res.VL reads SLToVL).
func hashVLs(net *graph.Network, res *routing.Result) uint64 {
	h := fnv.New64a()
	for sl := 0; sl < 8; sl++ {
		for c := 0; c < net.NumChannels(); c++ {
			h.Write([]byte{res.VL(uint8(sl), graph.ChannelID(c))})
		}
	}
	return h.Sum64()
}

// TestBaselineTableGoldens pins the forwarding tables of the baseline
// engines, all terminals at 8 VCs. The digests were recorded at commit
// c3d2580, when updn, ftree and routing.DestTree (dfsssp) still popped
// from the Fibonacci heap; they hold unchanged on the dial queue. The
// 8x8x8 row, where DFSSSP weights and hence bucket indices grow largest,
// keeps the engines that finish in well under a second; dfsssp (5 s to
// run out of VCs, one run on a 2-core Xeon host) was recorded equal on
// both queues as well and left out for the suite's running time.
//
// The table digest leaves out what a per-pair result keeps beside the
// table, so each row also pins hashLayers for dfsssp and lash (their
// layering is all in PairLayer). Those were recorded at commit d073fab,
// before the engines moved onto cdg.Induced. The rows of the engines
// that left the repository (mupdn, sssp, lashtor, smart) are at commit
// af7798a.
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
		layers map[string]uint64
	}{
		{"torus-4x4x3", topology.Torus3D(4, 4, 3, 1, 1), map[string]uint64{
			"updn": 0xbb719f70e626e933, "minhop": 0x5d70d34c17043cda,
			"dfsssp": 0xdb9934ddde88bcae}, map[string]uint64{
			"dfsssp": 0x9ad94d719be2e9e5, "lash": 0x928516dbad61b325}},
		{"torus-4x4x3-degraded", degraded(topology.Torus3D(4, 4, 3, 1, 1), 11), map[string]uint64{
			"updn": 0x9b5d50b4aaffd617, "minhop": 0x129328a50f59b49f,
			"dfsssp": 0x44090f0de89bf630}, map[string]uint64{
			"dfsssp": 0x067b3abe48b31825, "lash": 0xe688998f06caa4e5}},
		{"dragonfly-a4h2g9", topology.Dragonfly(4, 2, 2, 9), map[string]uint64{
			"updn": 0xd87de4d5e7e59834, "minhop": 0xeef319af3235d08c,
			"dfsssp": 0xe68cf4d000f1c6c2}, map[string]uint64{
			"dfsssp": 0x2f8b3e7419d44d04, "lash": 0xcf36ffa7a9ea7ac5}},
		{"dragonfly-a4h2g9-degraded", degraded(topology.Dragonfly(4, 2, 2, 9), 12), map[string]uint64{
			"updn": 0xa7adeb3a319d5594, "minhop": 0xa091cacd4154b394,
			"dfsssp": 0x12feb177f2e297f3}, map[string]uint64{
			"dfsssp": 0x72b4629fa0086de5, "lash": 0x73f99cf78899f545}},
		{"fattree-4ary3", topology.KAryNTree(4, 3, 4), map[string]uint64{
			"updn": 0x8274b000d9754724, "minhop": 0x226bacd62ae33424,
			"dfsssp": 0x7dbe54dd74800424, "ftree": 0x226bacd62ae33424}, map[string]uint64{
			"dfsssp": 0x46a53484d41ea925, "lash": 0x46a53484d41ea925}},
		{"fattree-4ary3-degraded", degraded(topology.KAryNTree(4, 3, 4), 13), map[string]uint64{
			"updn": 0xfd2a319a0f2b94a4, "minhop": 0x75f701858a1f3be7,
			"dfsssp": 0x86d95f42047b9235, "ftree": 0x8df0aa6cc7ea79cc}, map[string]uint64{
			"dfsssp": 0x0d12e29add0075c5, "lash": 0x46a53484d41ea925}},
		{"kautz-b3k2", topology.Kautz(3, 2, 2, 1), map[string]uint64{
			"updn": 0x2ae00fd59a7f9bc4, "minhop": 0xcde32605a90e9c02,
			"dfsssp": 0x3101c57d1c0cddac}, map[string]uint64{
			"dfsssp": 0x53a14df13a3c37c5, "lash": 0xe54eaa31d574cba5}},
		{"kautz-b3k2-degraded", degraded(topology.Kautz(3, 2, 2, 1), 14), map[string]uint64{
			"updn": 0xeef852c3719f6664, "minhop": 0xe9f55896c635c312,
			"dfsssp": 0xc5805fd6e4cc6697}, map[string]uint64{
			"dfsssp": 0x3abc0dca246839e4, "lash": 0xe54eaa31d574cba5}},
		{"random-40-160", random(), map[string]uint64{
			"updn": 0xd74072fbb9b55ae4, "minhop": 0x32bc717aef7aacd2,
			"dfsssp": 0x164506b80fbcca63}, map[string]uint64{
			"dfsssp": 0xb0987a55accba485, "lash": 0x43a7d4c055ccf1e5}},
		{"random-40-160-degraded", degraded(random(), 15), map[string]uint64{
			"updn": 0x11ae67f6dcc64354, "minhop": 0xf8ee2e395deebd78,
			"dfsssp": 0xdabafcf68e245f10}, map[string]uint64{
			"dfsssp": 0xf3c4457a91cd1307, "lash": 0xf3c3058f47a1f7a5}},
		{"torus-8x8x8", topology.Torus3D(8, 8, 8, 1, 1), map[string]uint64{
			"updn": 0x4d805efbb6ef0760, "minhop": 0x0778cf50931e0251}, nil},
	}
	for _, tc := range cases {
		engines := []routing.Engine{updn.Engine{}, minhop.MinHop{}, dfsssp.Engine{}, lash.Engine{}}
		if tc.tp.Tree != nil {
			engines = append(engines, ftree.Engine{Level: tc.tp.Tree.Level})
		}
		for _, e := range engines {
			want, ok := tc.golden[e.Name()]
			wantLayers, layered := tc.layers[e.Name()]
			if !ok && !layered {
				continue
			}
			t.Run(tc.name+"/"+e.Name(), func(t *testing.T) {
				res, err := e.Route(tc.tp.Net, tc.tp.Net.Terminals(), 8)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					if got := hashTables(tc.tp.Net, res); got != want {
						t.Errorf("table digest %#016x, want golden %#016x", got, want)
					}
				}
				if layered {
					if got := hashLayers(res); got != wantLayers {
						t.Errorf("layer digest %#016x, want golden %#016x", got, wantLayers)
					}
				}
			})
		}
	}
	// The grid engines (dor, torus2qos, angara) get their own rows: each
	// pins the table, PairLayer and lane digests and the Stats map, or the
	// exact refusal. A key is an engine name, with "@vcs" when the budget
	// is not 8. The link-degraded fabrics fail 3% of the links with the
	// seed in their name; mesh-4x4x1-1sw is TestMeshDORWithFaultDetours'
	// fabric. torus-4x3x2-links11 is where an Angara bypass hop runs along
	// the 2-ring, so its layer digest moves if crossBit sets the dateline
	// bit for the hop 0 -> 1 there. These were recorded at commit d5b6c26,
	// when Angara was its own package with its own route driver.
	linkFailed := func(tp *topology.Topology, seed int64) *topology.Topology {
		out, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(seed)), 0.03)
		return out
	}
	switchFailed := func(tp *topology.Topology, x, y, z int) *topology.Topology {
		return topology.FailSwitch(tp, tp.Torus.SwitchAt[x][y][z])
	}
	type gridGolden struct {
		tables, layers, vls uint64
		stats               string // fmt.Sprint(res.Stats)
		refusal             string // the error, when the engine refuses
	}
	grids := []struct {
		name string
		tp   *topology.Topology
		want map[string]gridGolden
	}{
		{"fig1-torus-4x4x3-1sw", switchFailed(topology.Torus3D(4, 4, 3, 4, 1), 1, 2, 0), map[string]gridGolden{
			"dor":       {0xa3557112798a3e4c, 0xcbf29ce484222325, 0xf35b8cf55e000ba5, "map[detours:252]", ""},
			"torus2qos": {0x1a566f0b7b3b80df, 0x7044f2c5befc04a5, 0x826ea2895238fba5, "map[detours:252]", ""},
			"angara":    {refusal: "angara: faults defeat direction-ordered routing: verify: cyclic channel dependency graph on VLs [0 1] (deadlock possible)"}}},
		{"torus-4x4x3-links135", linkFailed(topology.Torus3D(4, 4, 3, 1, 1), 135), map[string]gridGolden{
			"dor":       {0x5ca01183d050b1c3, 0xcbf29ce484222325, 0xb474ee88226a7125, "map[detours:96]", ""},
			"torus2qos": {refusal: "torus2qos: second failure in torus ring dim=1 at (2,2): positions [1 3]"},
			"angara":    {0x993edbc9f4ef9d8e, 0x66114532ef0a48a5, 0x58906033291247a5, "map[irregular:191]", ""},
			"angara@1":  {refusal: "angara: tori need 2 virtual channels for dateline deadlock freedom"}}},
		{"mesh-4x4x3", topology.Mesh3D(4, 4, 3, 1, 1), map[string]gridGolden{
			"dor":       {0x18528ef11c93a93c, 0xcbf29ce484222325, 0xbcf0054924b318e5, "map[detours:0]", ""},
			"dor@1":     {0x18528ef11c93a93c, 0xcbf29ce484222325, 0xbcf0054924b318e5, "map[detours:0]", ""},
			"torus2qos": {refusal: "torus2qos: meshes have no datelines; use plain dor (deadlock-free on meshes)"},
			"angara":    {0x3a9150f50ceed32c, 0xcbf29ce484222325, 0xbcf0054924b318e5, "map[irregular:0]", ""},
			"angara@1":  {0x3a9150f50ceed32c, 0xcbf29ce484222325, 0xbcf0054924b318e5, "map[irregular:0]", ""}}},
		{"mesh-4x4x3-1sw", switchFailed(topology.Mesh3D(4, 4, 3, 1, 1), 1, 1, 0), map[string]gridGolden{
			"dor":       {0x31e85f7228103c90, 0xcbf29ce484222325, 0xbcf0054924b318e5, "map[detours:168]", ""},
			"torus2qos": {refusal: "torus2qos: meshes have no datelines; use plain dor (deadlock-free on meshes)"},
			"angara":    {refusal: "angara: faults defeat direction-ordered routing: verify: cyclic channel dependency graph on VLs [0] (deadlock possible)"}}},
		{"mesh-4x4x1-1sw", switchFailed(topology.Mesh3D(4, 4, 1, 1, 1), 1, 1, 0), map[string]gridGolden{
			"dor":       {refusal: "dor: no fault-free dimension-order path [0 2 0] -> [1 0 0]: no detour around fault"},
			"torus2qos": {refusal: "torus2qos: meshes have no datelines; use plain dor (deadlock-free on meshes)"},
			"angara":    {refusal: "angara: faults defeat direction-ordered routing: verify: cyclic channel dependency graph on VLs [0] (deadlock possible)"}}},
		{"torus-2x4x3", topology.Torus3D(2, 4, 3, 1, 1), map[string]gridGolden{
			"dor":         {0x562229db4ed33c34, 0xcbf29ce484222325, 0x7f6205288cc76345, "map[detours:0]", ""},
			"dor@0":       {refusal: "dor: need at least one virtual channel"},
			"torus2qos":   {0xde59be4acbd362d7, 0x58bbb176ec4d8125, 0x1a3e23e071f6b805, "map[detours:0]", ""},
			"torus2qos@1": {refusal: "torus2qos: needs 2 virtual channels for dateline deadlock freedom"},
			"angara":      {0xa673defb20a79c7f, 0x58bbb176ec4d8125, 0x1a3e23e071f6b805, "map[irregular:0]", ""},
			"angara@0":    {refusal: "angara: need at least one virtual channel"},
			"angara@1":    {refusal: "angara: tori need 2 virtual channels for dateline deadlock freedom"}}},
		{"torus-2x4x3-links1", linkFailed(topology.Torus3D(2, 4, 3, 1, 1), 1), map[string]gridGolden{
			"dor":       {0xa1af860c712ca4b4, 0xcbf29ce484222325, 0x7f6205288cc76345, "map[detours:24]", ""},
			"torus2qos": {0x607ad9ebe060e897, 0xbc373d655ef8ca25, 0x1a3e23e071f6b805, "map[detours:24]", ""},
			"angara":    {0x59919270a16e08bb, 0x36ac150ed4999725, 0x1a3e23e071f6b805, "map[irregular:48]", ""}}},
		{"torus-2x4x3-links26", linkFailed(topology.Torus3D(2, 4, 3, 1, 1), 26), map[string]gridGolden{
			"dor":       {0xa40f45954b6362b4, 0xcbf29ce484222325, 0x7f6205288cc76345, "map[detours:48]", ""},
			"torus2qos": {refusal: "torus2qos: faults defeat dateline routing: verify: cyclic channel dependency graph on VLs [0 1] (deadlock possible)"},
			"angara":    {0x79c96927b0d08b7f, 0x07d15bebe6f89725, 0x1a3e23e071f6b805, "map[irregular:48]", ""}}},
		{"torus-4x3x2-links11", linkFailed(topology.Torus3D(4, 3, 2, 1, 1), 11), map[string]gridGolden{
			"dor":       {refusal: "dor: no fault-free dimension-order path [0 0 1] -> [0 1 0]: no detour around fault"},
			"torus2qos": {refusal: "torus2qos: no fault-free dimension-order path [0 0 1] -> [0 1 0]: no detour around fault"},
			"angara":    {0x6ef9d5a36902681e, 0xe19ca8119ec53465, 0x7b551435c2796205, "map[irregular:40]", ""}}},
		{"torus-4x4x2-1sw", switchFailed(topology.Torus3D(4, 4, 2, 1, 1), 1, 1, 0), map[string]gridGolden{
			"dor":       {0x759262dfb810faac, 0xcbf29ce484222325, 0x19cff996a9e7b0a5, "map[detours:36]", ""},
			"torus2qos": {0x3880a59c3381f64f, 0x87455f98842e20a5, 0x0f9144e50845c1a5, "map[detours:36]", ""},
			"angara":    {refusal: "angara: faults defeat direction-ordered routing: verify: cyclic channel dependency graph on VLs [0 1] (deadlock possible)"}}},
		{"fattree-4ary3", topology.KAryNTree(4, 3, 4), map[string]gridGolden{
			"dor":       {refusal: "dor: torus metadata required (not a torus)"},
			"torus2qos": {refusal: "dor: torus metadata required (not a torus)"},
			"angara":    {refusal: "angara: torus metadata required (not a torus/mesh)"}}},
	}
	for _, g := range grids {
		byName := map[string]routing.Engine{"dor": dor.Engine{Meta: g.tp.Torus},
			"torus2qos": dor.Engine{Meta: g.tp.Torus, Datelines: true}, "angara": dor.Angara{Meta: g.tp.Torus}}
		for key, want := range g.want {
			name, budget, found := strings.Cut(key, "@")
			vcs := 8
			if found {
				vcs, _ = strconv.Atoi(budget)
			}
			t.Run(g.name+"/"+key, func(t *testing.T) {
				res, err := byName[name].Route(g.tp.Net, g.tp.Net.Terminals(), vcs)
				if want.refusal != "" {
					if err == nil || err.Error() != want.refusal {
						t.Fatalf("refusal %v, want golden %q", err, want.refusal)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := hashTables(g.tp.Net, res); got != want.tables {
					t.Errorf("table digest %#016x, want golden %#016x", got, want.tables)
				}
				if got := hashLayers(res); got != want.layers {
					t.Errorf("layer digest %#016x, want golden %#016x", got, want.layers)
				}
				if got := hashVLs(g.tp.Net, res); got != want.vls {
					t.Errorf("lane digest %#016x, want golden %#016x", got, want.vls)
				}
				if got := fmt.Sprint(res.Stats); got != want.stats {
					t.Errorf("stats %s, want golden %s", got, want.stats)
				}
			})
		}
	}
}
