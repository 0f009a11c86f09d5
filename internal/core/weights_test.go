package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cdg"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topology"
)

// invertedTree reports whether some tree edge of parent does not lead
// strictly farther from dest: a child at or below its parent's distance,
// which farthest-first may visit after the parent.
func invertedTree(ls *layerState, dest graph.NodeID, parent []graph.ChannelID) bool {
	for n, c := range parent {
		if c == graph.NoChannel {
			continue
		}
		if w := ls.csr.From[c]; w != dest && ls.nodeDist[n] <= ls.nodeDist[w] {
			return true
		}
	}
	return false
}

// sameBits reports the first channel whose weights differ in any bit.
func sameBits(got, want []float64) (graph.ChannelID, bool) {
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			return graph.ChannelID(c), false
		}
	}
	return 0, true
}

// weightUpdatesAgree routes dests over maxVCs layers the way Route does
// (same split, layer seeds, roots, escape paths and destination order)
// and, at every destination's weight update, runs updateWeights and the
// farthest-first reference on copies of the same weights. The layer goes
// on from the reference's result, which both must equal bit for bit. It
// returns the updates compared and how many of their trees were inverted.
func weightUpdatesAgree(t *testing.T, net *graph.Network, dests []graph.NodeID, maxVCs int) (updates, inverted int) {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 1
	n := New(opts)
	rng := rand.New(rand.NewSource(opts.Seed))
	parts, err := partition.Split(net, dests, maxVCs, opts.Partition, rng)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, len(parts))
	for li := range parts {
		seeds[li] = rng.Int63()
	}
	isSource := n.sourceMask(net)
	for li, part := range parts {
		plan, _, err := n.planLayer(net, part, Plan{}, seeds[li], 1)
		if err != nil {
			t.Fatal(err)
		}
		tree := plan.Tree
		d := cdg.NewComplete(net)
		d.MarkEscapePaths(tree, part)
		var stats Stats
		ls := newLayerState(net, d, tree, opts, isSource, &stats)
		for _, dest := range part {
			parent, fellBack := ls.routeDest(dest)
			if fellBack {
				ls.updateWeightsEscape(dest)
				continue
			}
			before := slices.Clone(ls.weight)
			ls.updateWeights(dest, parent)
			got := slices.Clone(ls.weight)
			copy(ls.weight, before)
			ls.updateWeightsFarthestFirst(dest, parent)
			if c, ok := sameBits(got, ls.weight); !ok {
				t.Fatalf("layer %d, destination %d: channel %d weighs %v, farthest-first gives %v",
					li, dest, c, got[c], ls.weight[c])
			}
			updates++
			if invertedTree(ls, dest, parent) {
				inverted++
			}
		}
		ls.release()
		d.Release()
	}
	return updates, inverted
}

// TestWeightUpdateMatchesFarthestFirst holds updateWeights to the
// farthest-first reference on the two fabrics where §4.6.2 re-routes
// leave inverted trees: Fig. 1's faulty torus at 1-4 layers, and the
// 7x7x7 faulty torus of TestBacktrackUturnRerouteRejected. An inverted
// tree is one a leaf peel would weigh differently, so the test fails
// unless some were compared.
func TestWeightUpdateMatchesFarthestFirst(t *testing.T) {
	type fabric struct {
		name   string
		net    *graph.Network
		maxVCs []int
	}
	tp := topology.Torus3D(4, 4, 3, 4, 1)
	fig1 := topology.FailSwitch(tp, tp.Torus.SwitchAt[1][2][0])
	fabrics := []fabric{{"fig1", fig1.Net, []int{1, 2, 3, 4}}}
	if !testing.Short() {
		rng := rand.New(rand.NewSource(1*1_000_003 + 15))
		uturn, _ := topology.InjectLinkFailures(topology.Torus3D(7, 7, 7, 4, 1), rng, 0.01)
		fabrics = append(fabrics, fabric{"uturn", uturn.Net, []int{8}})
	}
	total := 0
	for _, f := range fabrics {
		for _, k := range f.maxVCs {
			updates, inverted := weightUpdatesAgree(t, f.net, workingTerminals(f.net), k)
			t.Logf("%s, %d layers: %d weight updates, %d inverted trees", f.name, k, updates, inverted)
			total += inverted
		}
	}
	if total == 0 {
		t.Fatal("no inverted tree was compared: the test no longer reaches the fallback")
	}
}

// TestWeightUpdateEqualSiblings: in a hand-built parent forest whose
// siblings and cousins share their distances, the leaf peel runs (every
// edge leads strictly farther from dest) and gives the reference's bits.
// One tree hangs from a node other than dest that has no parent; its
// count stops there in both.
func TestWeightUpdateEqualSiblings(t *testing.T) {
	const dest = 0
	b := graph.NewBuilder()
	for range 11 {
		b.AddSwitch("")
	}
	// Tree edges (w, v): v's parent channel, and v's distance.
	edges := []struct {
		w, v graph.NodeID
		dist float64
	}{
		{0, 1, 1.5}, {0, 2, 1.5}, {0, 3, 1.5}, // equal siblings
		{1, 4, 2.75}, {1, 5, 2.75}, {2, 6, 2.75}, // equal siblings and cousins
		{4, 7, 4}, {4, 8, 4},
		{9, 10, 3.25}, // under 9, which has no parent
	}
	parentCh := make([]graph.ChannelID, len(edges))
	for i, e := range edges {
		parentCh[i] = b.AddLink(e.w, e.v)
	}
	b.AddLink(3, 9) // 9 is reachable but routed nowhere
	net := b.MustBuild()

	ls := &layerState{net: net, csr: net.CSRView(), isSource: New(DefaultOptions()).sourceMask(net)}
	ls.weight = make([]float64, net.NumChannels())
	for c := range ls.weight {
		ls.weight[c] = 1 + float64(c)/7
	}
	ls.nodeDist = make([]float64, net.NumNodes())
	for i := range ls.nodeDist {
		ls.nodeDist[i] = math.Inf(1)
	}
	ls.nodeDist[dest], ls.nodeDist[9] = 0, 2
	parent := make([]graph.ChannelID, net.NumNodes())
	for i := range parent {
		parent[i] = graph.NoChannel
	}
	for i, e := range edges {
		parent[e.v] = parentCh[i]
		ls.nodeDist[e.v] = e.dist
	}
	ls.cntScratch = make([]int32, net.NumNodes())
	ls.kidsScratch = make([]int32, net.NumNodes())

	before := slices.Clone(ls.weight)
	if !ls.peelWeights(dest, parent) {
		t.Fatal("the forest is distance-monotone, but peelWeights refused it")
	}
	got := slices.Clone(ls.weight)
	copy(ls.weight, before)
	ls.updateWeightsFarthestFirst(dest, parent)
	if c, ok := sameBits(got, ls.weight); !ok {
		t.Fatalf("channel %d weighs %v after the peel, %v after farthest-first", c, got[c], ls.weight[c])
	}
	if slices.Equal(got, before) {
		t.Fatal("the update wrote no weight")
	}
}
