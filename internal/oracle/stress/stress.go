// Package stress is the randomized differential-testing harness built
// on top of the independent oracle (internal/oracle). From a single
// int64 seed it deterministically generates a topology (random,
// random-regular, degraded torus, degraded fat-tree, Kautz-ish
// irregular, or an escape-dominated ring), runs every registered
// routing engine over it, certifies each result with the oracle, and
// cross-checks the oracle's verdict against the in-tree verifier
// (internal/routing/verify). Engines that claim deadlock freedom
// (routing.Claims) and are refuted by the oracle are hard failures with
// a replayable seed; negative baselines (plain DOR, MinHop) being
// refuted is the expected outcome that proves the harness has teeth.
//
// cmd/nueverify is the CLI front end; the fabric-churn mode drives the
// online fabric manager with random event schedules under the oracle
// post-check hook.
package stress

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/topology"
)

// Class names a topology family the generator can draw from.
type Class string

const (
	// ClassRandom is the paper's random topology (spanning tree +
	// uniformly sampled extra links), optionally degraded.
	ClassRandom Class = "random"
	// ClassRegular is a random d-regular multigraph built by the
	// pairing model.
	ClassRegular Class = "regular"
	// ClassTorus is a 3D torus with random link failures injected.
	ClassTorus Class = "torus"
	// ClassFatTree is a k-ary n-tree with random link failures.
	ClassFatTree Class = "fattree"
	// ClassKautz is a Kautz graph, optionally degraded into an
	// irregular variant.
	ClassKautz Class = "kautz"
	// ClassRing is a 1D torus: the escape-dominated k=1 regime, and
	// the home of the DOR negative control.
	ClassRing Class = "ring"
	// ClassFullMesh is an all-to-all switch fabric, the claimed domain
	// of the VC-free full-mesh engine; trials run at k=1.
	ClassFullMesh Class = "fullmesh"
	// ClassDFGroup is a single Dragonfly router group (a full mesh with
	// Dragonfly-sized parameters); also a k=1 family.
	ClassDFGroup Class = "dfgroup"
	// ClassOneWay injects ONE-WAY link faults, breaking the duplex
	// symmetry every destination-based engine assumes. Half the draws
	// are directed rings (provably unroutable at one lane — the
	// existence procedure must say UNROUTABLE), half keep a duplex
	// spanning tree intact (provably routable — the witness engine must
	// certify).
	ClassOneWay Class = "oneway"
)

// Classes returns every topology family in rotation order.
func Classes() []Class {
	return []Class{ClassRandom, ClassRegular, ClassTorus, ClassFatTree, ClassKautz, ClassRing,
		ClassFullMesh, ClassDFGroup, ClassOneWay}
}

// ClassFor deterministically assigns a family to a seed (the rotation
// cmd/nueverify uses when no -topo is given).
func ClassFor(seed int64) Class {
	cs := Classes()
	i := int(seed % int64(len(cs)))
	if i < 0 {
		i += len(cs)
	}
	return cs[i]
}

// Generate builds a laptop-sized instance of the class from the rng.
// Every draw comes from rng alone, so (seed, class) replays exactly.
func Generate(class Class, rng *rand.Rand) *topology.Topology {
	switch class {
	case ClassRegular:
		n := 8 + 2*rng.Intn(6) // 8..18 switches, even
		return RandomRegular(rng, n, 3, 1+rng.Intn(2))
	case ClassTorus:
		tp := topology.Torus3D(2+rng.Intn(3), 2+rng.Intn(3), 1+rng.Intn(2), 1, 1)
		return degrade(tp, rng, 0.10)
	case ClassFatTree:
		tp := topology.KAryNTree(2, 2+rng.Intn(2), 1+rng.Intn(2))
		return degrade(tp, rng, 0.08)
	case ClassKautz:
		tp := topology.Kautz(2+rng.Intn(2), 2, 1, 1)
		return degrade(tp, rng, 0.08)
	case ClassRing:
		// 1D torus rather than topology.Ring so the torus metadata is
		// present and the DOR baselines apply.
		return topology.Torus3D(4+rng.Intn(6), 1, 1, 1, 1)
	case ClassFullMesh:
		tp := topology.FullMesh(4+rng.Intn(5), 1+rng.Intn(2))
		return degrade(tp, rng, 0.08)
	case ClassDFGroup:
		tp := topology.DragonflyGroup(4+rng.Intn(5), 1+rng.Intn(2))
		return degrade(tp, rng, 0.08)
	case ClassOneWay:
		return generateOneWay(rng)
	default: // ClassRandom
		sw := 10 + rng.Intn(16)
		maxExtra := sw*(sw-1)/2 - (sw - 1)
		links := sw - 1 + rng.Intn(min(2*sw, maxExtra)+1)
		tp := topology.RandomTopology(rng, sw, links, 1+rng.Intn(2))
		return degrade(tp, rng, 0.08)
	}
}

// DefaultVCs draws the virtual-channel budget for a trial. Rings default
// to k=1 — the escape-dominated corner the fuzz corpus originally
// missed. Full-mesh families run at k=1 too (the VC-free engine's whole
// claim), and one-way trials at k=1 so the existence verdict is exact.
// Everything else sweeps 1..4.
func DefaultVCs(class Class, rng *rand.Rand) int {
	switch class {
	case ClassRing, ClassFullMesh, ClassDFGroup, ClassOneWay:
		return 1
	}
	return 1 + rng.Intn(4)
}

// generateOneWay builds an asymmetric instance with a PROVABLE
// one-lane existence verdict. Directed-ring mode keeps only the forward
// half of every ring link: all transitions around the ring are forced,
// so no single-lane deadlock-free routing exists. Partial mode half-
// fails only non-spanning-tree links of a random topology: the intact
// duplex tree still supports an all-pairs increasing channel order.
func generateOneWay(rng *rand.Rand) *topology.Topology {
	if rng.Intn(2) == 0 {
		n := 4 + rng.Intn(6)
		tp := topology.Ring(n, 1)
		net := tp.Net
		for c := 0; c < net.NumChannels(); c += 2 {
			fwd := net.Channel(graph.ChannelID(c))
			if net.IsSwitch(fwd.From) && net.IsSwitch(fwd.To) {
				net.SetHalfFailed(fwd.Reverse, true)
			}
		}
		tp.Name = fmt.Sprintf("oneway-ring-%d", n)
		return tp
	}
	sw := 6 + rng.Intn(8)
	maxExtra := sw*(sw-1)/2 - (sw - 1)
	links := sw - 1 + rng.Intn(min(sw, maxExtra)+1)
	tp := topology.RandomTopology(rng, sw, links, 1)
	net := tp.Net
	tree := graph.SpanningTree(net, net.Switches()[0])
	dropped := 0
	for c := 0; c < net.NumChannels(); c += 2 {
		id := graph.ChannelID(c)
		fwd := net.Channel(id)
		if !net.IsSwitch(fwd.From) || !net.IsSwitch(fwd.To) || tree.IsTreeChannel(id) {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			net.SetHalfFailed(id, true)
			dropped++
		case 1:
			net.SetHalfFailed(fwd.Reverse, true)
			dropped++
		}
	}
	tp.Name = fmt.Sprintf("oneway-partial-%d-%d", sw, dropped)
	return tp
}

// degrade fails up to maxFraction of the switch-to-switch links without
// disconnecting the network (half of the draws stay pristine).
func degrade(tp *topology.Topology, rng *rand.Rand, maxFraction float64) *topology.Topology {
	f := maxFraction * float64(rng.Intn(3)) / 2 // 0, maxFraction/2 or maxFraction
	if f == 0 {
		return tp
	}
	out, _ := topology.InjectLinkFailures(tp, rng, f)
	return out
}

// RandomRegular builds a connected random degree-regular multigraph of
// switches via the pairing model (degree stubs per switch, matched
// uniformly; self-pairs rejected, parallel pairs kept — the repository
// models multigraph redundancy natively), with the given terminals per
// switch. After repeated rejection it falls back to the paper's random
// topology with the same edge budget, so callers always get a network.
func RandomRegular(rng *rand.Rand, switches, degree, terminals int) *topology.Topology {
	if switches*degree%2 != 0 {
		panic("stress: switches*degree must be even for a regular pairing")
	}
	stubs := make([]int, 0, switches*degree)
	for attempt := 0; attempt < 64; attempt++ {
		stubs = stubs[:0]
		for s := 0; s < switches; s++ {
			for i := 0; i < degree; i++ {
				stubs = append(stubs, s)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			if stubs[i] == stubs[i+1] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		b := graph.NewBuilder()
		sw := make([]graph.NodeID, switches)
		for i := range sw {
			sw[i] = b.AddSwitch(fmt.Sprintf("g%d", i))
		}
		for i := 0; i < len(stubs); i += 2 {
			b.AddLink(sw[stubs[i]], sw[stubs[i+1]])
		}
		for _, s := range sw {
			for j := 0; j < terminals; j++ {
				t := b.AddTerminal(fmt.Sprintf("h%d-%d", s, j))
				b.AddLink(t, s)
			}
		}
		net := b.MustBuild()
		if graph.Connected(net) {
			return &topology.Topology{Net: net, Name: fmt.Sprintf("regular-%d-%d", switches, degree)}
		}
	}
	return topology.RandomTopology(rng, switches, switches*degree/2, terminals)
}
