package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/topology"
)

func mustSplit(t testing.TB, g *graph.Network, dests []graph.NodeID, k int, s Strategy, rng *rand.Rand) [][]graph.NodeID {
	t.Helper()
	parts, err := Split(g, dests, k, s, rng)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// TestSplitErrors: a k below 1, no destinations and a strategy nobody
// implements are errors. Options{} names no strategy, and the k-way
// partitioner divided by zero on an empty destination set.
func TestSplitErrors(t *testing.T) {
	g := topology.Ring(4, 1).Net
	dests := g.Terminals()
	for _, c := range []struct {
		k     int
		s     Strategy
		dests []graph.NodeID
		want  string
	}{
		{0, MultilevelKWay, dests, "k must be at least 1, have 0"},
		{2, "", dests, `unknown strategy ""`},
		{1, "metis", dests, `unknown strategy "metis"`},
		{2, MultilevelKWay, nil, "no destinations"},
	} {
		parts, err := Split(g, c.dests, c.k, c.s, rand.New(rand.NewSource(1)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Split(k=%d, %q, %d dests) = %d parts, error %v; want an error with %q", c.k, c.s, len(c.dests), len(parts), err, c.want)
		}
	}
}

// splitFabric is a network the partitioner is held to the reference on,
// with the destination sets it is split for.
type splitFabric struct {
	name  string
	net   *graph.Network
	dests [][]graph.NodeID
}

// strideSamples are the destination sets of the benchmark's sampled cold
// workload: n terminals a stride apart, from each of eight offsets spread
// over the stride.
func strideSamples(terms []graph.NodeID, n int) [][]graph.NodeID {
	stride := len(terms) / n
	var out [][]graph.NodeID
	for off := 0; off < 8; off++ {
		first := off * max(stride/8, 1)
		sample := make([]graph.NodeID, n)
		for i := range sample {
			sample[i] = terms[first+i*stride]
		}
		out = append(out, sample)
	}
	return out
}

// halfFailedRandom is a random network whose switch-to-switch links off
// one spanning tree lose one direction, each with probability 1/2.
func halfFailedRandom(seed int64) *graph.Network {
	rng := rand.New(rand.NewSource(seed))
	net := topology.RandomTopology(rng, 24, 48, 1).Net
	tree := bfs.SpanningTree(net, net.Switches()[0])
	for c := 0; c < net.NumChannels(); c += 2 {
		id := graph.ChannelID(c)
		ch := net.Channel(id)
		if net.IsSwitch(ch.From) && net.IsSwitch(ch.To) && !tree.IsTreeChannel(id) && rng.Intn(2) == 0 {
			net.SetHalfFailed(id, true)
		}
	}
	return net
}

func splitFabrics() []splitFabric {
	all := func(name string, net *graph.Network) splitFabric {
		dests := net.Terminals()
		if len(dests) == 0 {
			dests = net.Switches()
		}
		return splitFabric{name, net, [][]graph.NodeID{dests}}
	}
	degraded := func(tp *topology.Topology, seed int64) *graph.Network {
		out, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(seed)), 0.12)
		return out.Net
	}
	big := topology.Torus3D(16, 16, 16, 1, 1).Net
	return []splitFabric{
		all("torus-4x4x4", topology.Torus3D(4, 4, 4, 1, 1).Net),
		all("torus-8x8x8", topology.Torus3D(8, 8, 8, 1, 1).Net),
		{"torus-16x16x16-sampled", big, strideSamples(big.Terminals(), 32)},
		all("torus-4x4x3-r2", topology.Torus3D(4, 4, 3, 2, 2).Net),
		all("torus-4x4x3-switches", topology.Torus3D(4, 4, 3, 0, 1).Net),
		all("dragonfly-a4h2g9", topology.Dragonfly(4, 2, 2, 9).Net),
		all("fattree-4ary3", topology.KAryNTree(4, 3, 1).Net),
		all("random-40", topology.RandomTopology(rand.New(rand.NewSource(5)), 40, 90, 2).Net),
		all("torus-8x8x8-degraded", degraded(topology.Torus3D(8, 8, 8, 1, 1), 11)),
		all("dragonfly-a4h2g9-degraded", degraded(topology.Dragonfly(4, 2, 2, 9), 12)),
		all("half-failed-24", halfFailedRandom(21)),
	}
}

// TestSplitMatchesReference: the flat partitioner returns the reference's
// parts element for element and leaves the rng where the reference does,
// so every layer seed drawn after the split is the reference's too. Seed
// s splits a fabric's destination set s mod the number of sets: how the
// switches are partitioned does not depend on the set, so each of the
// eight 16³ samples gets six or seven of the 50 seeds.
func TestSplitMatchesReference(t *testing.T) {
	for _, f := range splitFabrics() {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			for _, s := range []Strategy{MultilevelKWay, Random} {
				for _, k := range []int{2, 3, 4, 8} {
					for seed := int64(1); seed <= 50; seed++ {
						set := int(seed) % len(f.dests)
						dests := f.dests[set]
						what := fmt.Sprintf("set %d, %s, k=%d, seed %d", set, s, k, seed)
						rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
						got, want := mustSplit(t, f.net, dests, k, s, rng), referenceSplit(f.net, dests, k, s, refRng)
						if !slices.EqualFunc(got, want, slices.Equal[[]graph.NodeID]) {
							t.Fatalf("%s: parts %v, reference %v", what, got, want)
						}
						if a, b := rng.Int63(), refRng.Int63(); a != b {
							t.Fatalf("%s: next draw %d, reference %d", what, a, b)
						}
					}
				}
			}
		})
	}
}

// TestSplitAllocs: a warm k-way split of the 16³ torus allocates the parts
// it returns and nothing else: one array for all of them and the list.
func TestSplitAllocs(t *testing.T) {
	g := topology.Torus3D(16, 16, 16, 1, 1).Net
	rng := rand.New(rand.NewSource(1))
	for _, dests := range [][]graph.NodeID{g.Terminals(), strideSamples(g.Terminals(), 32)[3]} {
		// The same seed every run: another draw could coarsen to a level
		// larger than any the workspace has held yet.
		allocs := testing.AllocsPerRun(5, func() {
			rng.Seed(7)
			mustSplit(t, g, dests, 4, MultilevelKWay, rng)
		})
		if allocs != 2 {
			t.Errorf("%d destinations: a warm Split makes %.0f allocations, want 2", len(dests), allocs)
		}
	}
}

func checkPartition(t *testing.T, dests []graph.NodeID, parts [][]graph.NodeID, k int) {
	t.Helper()
	if len(parts) != k {
		t.Fatalf("got %d parts, want %d", len(parts), k)
	}
	seen := make(map[graph.NodeID]int)
	for i, p := range parts {
		if len(p) == 0 {
			t.Errorf("part %d empty", i)
		}
		for _, n := range p {
			if prev, dup := seen[n]; dup {
				t.Errorf("node %d in parts %d and %d", n, prev, i)
			}
			seen[n] = i
		}
	}
	if len(seen) != len(dests) {
		t.Errorf("partition covers %d nodes, want %d", len(seen), len(dests))
	}
	for _, d := range dests {
		if _, ok := seen[d]; !ok {
			t.Errorf("destination %d missing from partition", d)
		}
	}
	min, max := len(dests), 0
	for _, p := range parts {
		if len(p) < min {
			min = len(p)
		}
		if len(p) > max {
			max = len(p)
		}
	}
	if max-min > 1 {
		t.Errorf("imbalanced partition: min %d, max %d", min, max)
	}
}

func TestSplitStrategies(t *testing.T) {
	tp := topology.Torus3D(4, 4, 3, 4, 1)
	g := tp.Net
	dests := g.Terminals()
	for _, k := range []int{1, 2, 3, 8} {
		for _, s := range []Strategy{Random, MultilevelKWay} {
			t.Run(string(s), func(t *testing.T) {
				rng := rand.New(rand.NewSource(5))
				parts := mustSplit(t, g, dests, k, s, rng)
				checkPartition(t, dests, parts, k)
			})
		}
	}
}

func TestSplitKOne(t *testing.T) {
	tp := topology.Ring(5, 2)
	dests := tp.Net.Terminals()
	parts := mustSplit(t, tp.Net, dests, 1, MultilevelKWay, rand.New(rand.NewSource(1)))
	if len(parts) != 1 || len(parts[0]) != len(dests) {
		t.Fatalf("k=1 partition wrong: %d parts, %d dests", len(parts), len(parts[0]))
	}
}

func TestSplitKLargerThanDests(t *testing.T) {
	tp := topology.Ring(3, 1)
	dests := tp.Net.Terminals() // 3 terminals
	parts := mustSplit(t, tp.Net, dests, 8, Random, rand.New(rand.NewSource(1)))
	if len(parts) != 3 {
		t.Fatalf("k clamped to %d, want 3", len(parts))
	}
	checkPartition(t, dests, parts, 3)
}

func TestKWayLocality(t *testing.T) {
	// On a long ring, k-way partitioning should beat random on edge cut:
	// terminals of adjacent switches should mostly share a part.
	tp := topology.Ring(32, 2)
	g := tp.Net
	dests := g.Terminals()
	rng := rand.New(rand.NewSource(9))
	kway := mustSplit(t, g, dests, 4, MultilevelKWay, rng)
	random := mustSplit(t, g, dests, 4, Random, rand.New(rand.NewSource(9)))
	cut := func(parts [][]graph.NodeID) int {
		partOf := make(map[graph.NodeID]int)
		for i, p := range parts {
			for _, n := range p {
				partOf[g.TerminalSwitch(n)] = i
			}
		}
		c := 0
		for i := 0; i < 32; i++ {
			if partOf[graph.NodeID(i)] != partOf[graph.NodeID((i+1)%32)] {
				c++
			}
		}
		return c
	}
	if ck, cr := cut(kway), cut(random); ck > cr {
		t.Errorf("k-way cut %d worse than random cut %d", ck, cr)
	}
}

func TestSplitDeterministicPerSeed(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 3, 1)
	dests := tp.Net.Terminals()
	a := mustSplit(t, tp.Net, dests, 4, MultilevelKWay, rand.New(rand.NewSource(7)))
	b := mustSplit(t, tp.Net, dests, 4, MultilevelKWay, rand.New(rand.NewSource(7)))
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("part %d sizes differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("part %d element %d differs", i, j)
			}
		}
	}
}

func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(20)
		tp := topology.RandomTopology(rng, n, n-1+rng.Intn(n), 1+rng.Intn(3))
		g := tp.Net
		dests := g.Terminals()
		k := 1 + rng.Intn(8)
		parts := mustSplit(t, g, dests, k, MultilevelKWay, rng)
		seen := make(map[graph.NodeID]bool)
		total := 0
		for _, p := range parts {
			if len(p) == 0 {
				return false
			}
			for _, d := range p {
				if seen[d] {
					return false
				}
				seen[d] = true
				total++
			}
		}
		return total == len(dests)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
