package centrality_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/centrality"
	"repro/internal/certtest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topology"
)

// rootFabric is a network the hull-local pass is held to the reference
// on: every destination set is split k ways for each of ks and each seed,
// as the engine splits its layers, and each whole set and each part is a
// root choice.
type rootFabric struct {
	name  string
	net   *graph.Network
	dests [][]graph.NodeID
	ks    []int
	seeds int64
}

func rootFabrics(t *testing.T) []rootFabric {
	every := []int{2, 3, 4, 8}
	all := func(name string, net *graph.Network, seeds int64) rootFabric {
		return rootFabric{name, net, [][]graph.NodeID{routable(net, nil)}, every, seeds}
	}
	degraded := func(tp *topology.Topology, seed int64) *graph.Network {
		out, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(seed)), 0.12)
		return out.Net
	}
	// The benchmark's sampled cold fabric: 32 terminals a stride apart,
	// from each of eight offsets spread over the stride.
	big := topology.Torus3D(16, 16, 16, 1, 1).Net
	terms := big.Terminals()
	stride := len(terms) / 32
	var samples [][]graph.NodeID
	for off := 0; off < 8; off++ {
		sample := make([]graph.NodeID, 32)
		for i := range sample {
			sample[i] = terms[off*stride/8+i*stride]
		}
		samples = append(samples, sample)
	}
	torusDegraded := degraded(topology.Torus3D(8, 8, 8, 1, 1), 11)
	out := []rootFabric{
		all("torus-4x4x4", topology.Torus3D(4, 4, 4, 1, 1).Net, 20),
		all("torus-8x8x8", topology.Torus3D(8, 8, 8, 1, 1).Net, 1),
		// At the benchmark's k: the hulls are small, but each takes a
		// search of the whole fabric per destination.
		{"torus-16x16x16-sampled", big, samples, []int{4}, 1},
		all("torus-4x4x3-r2", topology.Torus3D(4, 4, 3, 2, 2).Net, 20),
		all("dragonfly-a4h2g9", topology.Dragonfly(4, 2, 2, 9).Net, 20),
		all("fattree-4ary3", topology.KAryNTree(4, 3, 1).Net, 20),
		all("random-40", topology.RandomTopology(rand.New(rand.NewSource(5)), 40, 90, 2).Net, 20),
		{"torus-8x8x8-degraded", torusDegraded, [][]graph.NodeID{routable(torusDegraded, nil)}, []int{4}, 1},
		all("dragonfly-a4h2g9-degraded", degraded(topology.Dragonfly(4, 2, 2, 9), 12), 20),
	}
	// One-way faults: a network whose links off a spanning tree lost a
	// direction, and islands joined by a one-way link.
	for _, c := range certtest.Reach(t) {
		out = append(out, all(c.Name, c.Net, 20))
	}
	return out
}

// routable is dests (the terminals, or the switches of a network without
// any, when nil) without the nodes that have no channel, as Route keeps
// them.
func routable(net *graph.Network, dests []graph.NodeID) []graph.NodeID {
	if dests == nil {
		if dests = net.Terminals(); len(dests) == 0 {
			dests = net.Switches()
		}
	}
	var out []graph.NodeID
	for _, d := range dests {
		if net.Degree(d) > 0 {
			out = append(out, d)
		}
	}
	return out
}

// referenceRoot is MostCentral's choice over the reference hull, given
// the reference centralities over it.
func referenceRoot(g *graph.Network, hull []graph.NodeID, cb []float64) graph.NodeID {
	if len(hull) == 0 {
		return graph.NoNode
	}
	best := hull[0]
	for _, n := range hull[1:] {
		if cb[n] != cb[best] {
			if cb[n] > cb[best] {
				best = n
			}
			continue
		}
		if ns, bs := g.IsSwitch(n), g.IsSwitch(best); ns != bs {
			if ns {
				best = n
			}
			continue
		}
		if n < best {
			best = n
		}
	}
	return best
}

// sameBits reports the first node whose centralities differ in any bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d centralities, reference %d", len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Errorf("node %d: %v (%#x), reference %v (%#x)", v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
	return nil
}

// TestBetweennessMatchesReference: on every destination set and every
// k-way layer part of it, the hull is the reference's, every node's
// betweenness over the hull is the reference's to the bit at 1, 2 and 4
// workers, and so is the root. The whole network (sub nil) is checked
// once per fabric of at most 1,024 nodes.
func TestBetweennessMatchesReference(t *testing.T) {
	for _, f := range rootFabrics(t) {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			check := func(what string, dests []graph.NodeID) {
				hull, refHull := centrality.ConvexSubgraph(f.net, dests), referenceConvexSubgraph(f.net, dests)
				if !reflect.DeepEqual(hull, refHull) {
					t.Fatalf("%s: hull %v, reference %v", what, hull, refHull)
				}
				ref := referenceBetweennessN(f.net, refHull, 1)
				for _, w := range []int{1, 2, 4} {
					if err := sameBits(centrality.BetweennessN(f.net, hull, w), ref); err != nil {
						t.Fatalf("%s, %d workers: %v", what, w, err)
					}
				}
				if got, want := centrality.RootForDestinationsN(f.net, dests, 2), referenceRoot(f.net, refHull, ref); got != want {
					t.Fatalf("%s: root %d, reference %d", what, got, want)
				}
			}
			// From all 8,192 sources of the 16³ torus it would take seconds.
			if f.net.NumNodes() <= 1024 {
				want := referenceBetweennessN(f.net, nil, 1)
				for _, w := range []int{1, 2, 4} {
					if err := sameBits(centrality.BetweennessN(f.net, nil, w), want); err != nil {
						t.Fatalf("whole network, %d workers: %v", w, err)
					}
				}
			}
			for si, dests := range f.dests {
				check(fmt.Sprintf("set %d", si), dests)
				for _, k := range f.ks {
					for seed := int64(1); seed <= f.seeds; seed++ {
						parts, err := partition.Split(f.net, dests, k, partition.MultilevelKWay, rand.New(rand.NewSource(seed)))
						if err != nil {
							t.Fatal(err)
						}
						for li, part := range parts {
							check(fmt.Sprintf("set %d, k=%d, seed %d, layer %d", si, k, seed, li), part)
						}
					}
				}
			}
		})
	}
}

// TestRootSelectionAllocs: a warm root choice, hull and betweenness pass
// included, allocates nothing.
func TestRootSelectionAllocs(t *testing.T) {
	g := topology.Torus3D(8, 8, 8, 1, 1).Net
	terms := g.Terminals()
	for _, dests := range [][]graph.NodeID{terms, terms[:96], terms[300:310]} {
		if allocs := testing.AllocsPerRun(3, func() { centrality.RootForDestinationsN(g, dests, 1) }); allocs != 0 {
			t.Errorf("%d destinations: a warm RootForDestinationsN makes %.0f allocations, want 0", len(dests), allocs)
		}
	}
}
