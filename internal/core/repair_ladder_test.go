package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// ladderCase is one (topology, failure) pair and what RepairLayer's
// ladder makes of it: the rung every affected layer ends on, in layer
// order, and the digest of the repaired table — once without a root hint
// and once with every layer hinted the fabric's first switch, a root the
// narrow repair accepts but rarely likes, which takes the hint through
// its re-validation on the widened set. The pinned values were taken at
// the commit before the ladder moved into RepairLayer, from its
// RepairLayer plus the fabric runner's widening retry.
type ladderCase struct {
	name         string
	vcs          int
	tp           *topology.Topology
	failed       []graph.ChannelID // one channel of every duplex link that fails
	rungs        []int
	digest       uint64
	hintedRungs  []int
	hintedDigest uint64
}

// TestRepairLadder pins which rung each layer of each case ends on and
// the table the ladder leaves behind, with every rung covered.
func TestRepairLadder(t *testing.T) {
	// The fixture of TestRepairEscapeRootFailure: the escape root fails.
	hubRing, hub := hubTopology(8)
	torus := topology.Torus3D(4, 4, 4, 1, 1)
	dfly := topology.Dragonfly(4, 2, 2, 9)
	cases := []ladderCase{
		{name: "hub-ring/hub", vcs: 1, tp: hubRing, failed: hubRing.Net.Out(hub),
			rungs: []int{2}, digest: 0x2eb558eb8b43ab68,
			hintedRungs: []int{2}, hintedDigest: 0x2eb558eb8b43ab68},
		{name: "torus4x4x4/98", vcs: 4, tp: torus, failed: []graph.ChannelID{98},
			rungs: []int{3, 1, 1, 2}, digest: 0x125090ae4a5496ce,
			hintedRungs: []int{3, 1, 1, 4}, hintedDigest: 0xd05a89b1b5123020},
		{name: "torus4x4x4/116", vcs: 4, tp: torus, failed: []graph.ChannelID{116},
			rungs: []int{4, 1, 1, 3}, digest: 0xab247503d8d7b204,
			hintedRungs: []int{4, 1, 1, 3}, hintedDigest: 0x511baee4b1af716b},
		{name: "torus4x4x1/24", vcs: 2, tp: topology.Torus3D(4, 4, 1, 1, 1), failed: []graph.ChannelID{24},
			rungs: []int{2, 2}, digest: 0x3dbadb6cd85ff45b,
			hintedRungs: []int{2, 2}, hintedDigest: 0xc898108ddb322f67},
		{name: "dragonfly/82", vcs: 4, tp: dfly, failed: []graph.ChannelID{82},
			rungs: []int{1, 1, 4, 1}, digest: 0x588a20a91994e824,
			hintedRungs: []int{1, 1, 4, 1}, hintedDigest: 0xc3725be68e136542},
		{name: "dragonfly/160", vcs: 4, tp: dfly, failed: []graph.ChannelID{160},
			rungs: []int{1, 1, 3, 1}, digest: 0x3cfa2faf3aa277f8,
			hintedRungs: []int{1, 1, 3, 1}, hintedDigest: 0x3cfa2faf3aa277f8},
	}
	covered := map[int]bool{}
	for _, c := range cases {
		eng := New(DefaultOptions())
		res, err := eng.Route(c.tp.Net, c.tp.Net.Terminals(), c.vcs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		faulty := c.tp.Net.Clone()
		for _, ch := range c.failed {
			faulty.SetChannelFailed(ch, true)
		}
		base := res.Table.Clone(faulty)
		repair, kept, _ := partitionByUse(faulty, base, res.DestLayer)
		layers := make([]int, 0, len(repair))
		for l := range repair {
			layers = append(layers, int(l))
		}
		sort.Ints(layers)

		run := func(hint bool) ([]int, uint64) {
			table := base.Clone(faulty)
			var rungs []int
			for _, l := range layers {
				req := RepairRequest{Net: faulty, Table: table, Repair: repair[uint8(l)], Kept: kept[uint8(l)]}
				if hint {
					req.RootHint, req.HasRootHint = faulty.Switches()[0], true
				}
				st, err := eng.RepairLayer(req)
				if err != nil {
					t.Fatalf("%s: layer %d: %v", c.name, l, err)
				}
				if st.RootReused != hint {
					t.Errorf("%s: layer %d: RootReused = %v with hint = %v", c.name, l, st.RootReused, hint)
				}
				rungs = append(rungs, st.Rung)
				covered[st.Rung] = true
			}
			return rungs, table.Digest()
		}
		if rungs, digest := run(false); !reflect.DeepEqual(rungs, c.rungs) || digest != c.digest {
			t.Errorf("%s: rungs %v digest %#x, want %v %#x", c.name, rungs, digest, c.rungs, c.digest)
		}
		if rungs, digest := run(true); !reflect.DeepEqual(rungs, c.hintedRungs) || digest != c.hintedDigest {
			t.Errorf("%s: hinted: rungs %v digest %#x, want %v %#x", c.name, rungs, digest, c.hintedRungs, c.hintedDigest)
		}
	}
	for rung := 1; rung <= 4; rung++ {
		if !covered[rung] {
			t.Errorf("no case ends on rung %d", rung)
		}
	}
}

// TestRepairLadderCensus flaps random links of two fabrics (fail one
// switch-to-switch link that keeps the fabric connected, repair every
// affected layer on top of the previous repairs, restore the link) and
// logs how many layer repairs ended on each rung — the table in
// EXPERIMENTS.md. It pins nothing (moving a count is ROADMAP item 1(b)),
// so all it produces is the log, and it runs only where that is shown:
//
//	go test -run TestRepairLadderCensus -v ./internal/core/
func TestRepairLadderCensus(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("logs a table and checks nothing; run with -v")
	}
	for _, c := range []struct {
		tp    *topology.Topology
		flaps int
	}{
		{topology.Torus3D(8, 8, 8, 1, 1), 8},
		{topology.Dragonfly(4, 2, 2, 9), 60},
	} {
		net := c.tp.Net
		opts := DefaultOptions()
		opts.Seed = 1
		eng := New(opts)
		res, err := eng.Route(net, net.Terminals(), 4)
		if err != nil {
			t.Fatalf("%s: %v", c.tp.Name, err)
		}
		rng := rand.New(rand.NewSource(1))
		table := res.Table
		var rungs [5]int
		jobs := 0
		for flap := 0; flap < c.flaps; flap++ {
			var faulty *graph.Network
			for faulty == nil {
				ch := net.Channel(graph.ChannelID(rng.Intn(net.NumChannels())))
				if !net.IsSwitch(ch.From) || !net.IsSwitch(ch.To) {
					continue
				}
				if faulty = net.WithoutChannels(ch.ID); !graph.Connected(faulty) {
					faulty = nil
				}
			}
			table = table.Clone(faulty)
			repair, kept, _ := partitionByUse(faulty, table, res.DestLayer)
			for l, rep := range repair {
				st, err := eng.RepairLayer(RepairRequest{Net: faulty, Table: table, Repair: rep, Kept: kept[l]})
				if err != nil {
					t.Fatalf("%s: flap %d layer %d: %v", c.tp.Name, flap, l, err)
				}
				rungs[st.Rung]++
				jobs++
			}
			table = table.Clone(net)
		}
		t.Logf("%s: %d flaps, %d layer repairs, ended on rung 1/2/3/4: %d/%d/%d/%d",
			c.tp.Name, c.flaps, jobs, rungs[1], rungs[2], rungs[3], rungs[4])
	}
}
