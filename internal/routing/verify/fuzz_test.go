// Property-based harness for the paper's correctness lemmas: random
// topologies, random failures, random VC budgets and random worker counts
// must always yield a deadlock-free (CDG-acyclic), fully-delivering,
// destination-based and deterministic routing. Run the seeded corpus in
// every `go test`; explore with
//
//	go test -run '^$' -fuzz FuzzNueProperties -fuzztime 60s ./internal/routing/verify/
package verify_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/certtest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// fuzzTopology derives a small topology from the fuzz inputs; every input
// maps to some valid network so the fuzzer never wastes executions.
func fuzzTopology(kind, a, b, c uint8, seed int64) *topology.Topology {
	switch kind % 8 {
	case 0:
		return topology.Torus3D(2+int(a%3), 2+int(b%3), 2+int(c%2), 1+int(a%2), 1)
	case 1:
		sw := 2 + int(a%3) // switches per group
		h := 1 + int(c%2)  // global ports per switch
		return topology.Dragonfly(sw, 1+int(b%2), h, sw*h+1)
	case 2:
		return topology.Kautz(2+int(a%2), 2, 1+int(b%2), 1)
	case 4:
		// 1D torus: with k=1 (see the seeded corpus) the layer is
		// escape-dominated — nearly every route leans on the spanning
		// tree, the regime where the CDG has the least slack.
		return topology.Torus3D(4+int(a%6), 1, 1, 1+int(b%2), 1)
	case 5:
		// Full mesh: the VC-free engine's claimed domain; Nue must handle
		// the all-to-all dependency density too.
		return topology.FullMesh(4+int(a%5), 1+int(b%2))
	case 6:
		// A single Dragonfly router group (full mesh with Dragonfly-sized
		// parameters).
		return topology.DragonflyGroup(4+int(a%5), 1+int(b%2))
	case 7:
		// Large-sparse: the regime the PR 8 flat core targets — many
		// switches, average switch degree ~3, long shortest paths, heavy
		// escape-tree traffic. Big enough to exercise the CSR/dial/arena
		// machinery, small enough for the seeded corpus to stay fast.
		rng := rand.New(rand.NewSource(seed ^ 0x5a))
		sws := 48 + int(a)%48
		return topology.RandomTopology(rng, sws, sws*3/2, 1)
	default:
		rng := rand.New(rand.NewSource(seed))
		sws := 10 + int(a)%30
		return topology.RandomTopology(rng, sws, sws*3, 1+int(b%3))
	}
}

// routeHash digests a result's forwarding behavior (VCs, layer
// assignment, every next hop) for the determinism cross-check.
func routeHash(net *graph.Network, res *routing.Result) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		h = (h ^ uint64(v)) * prime
	}
	mix(int64(res.VCs))
	for _, l := range res.DestLayer {
		mix(int64(l))
	}
	for _, s := range net.Switches() {
		for _, d := range res.Table.Dests() {
			mix(int64(res.Table.Next(s, d)))
		}
	}
	return h
}

func FuzzNueProperties(f *testing.F) {
	// Seeded deterministic corpus: one entry per topology family plus
	// fault-heavy and VC-starved corners; CI replays exactly these.
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), int64(1), uint8(4), uint8(3), uint8(0))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), int64(2), uint8(2), uint8(1), uint8(5))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), int64(3), uint8(1), uint8(7), uint8(0))
	f.Add(uint8(3), uint8(25), uint8(2), uint8(0), int64(4), uint8(3), uint8(2), uint8(8))
	f.Add(uint8(0), uint8(2), uint8(2), uint8(1), int64(5), uint8(1), uint8(4), uint8(9))
	f.Add(uint8(3), uint8(5), uint8(1), uint8(3), int64(6), uint8(2), uint8(0), uint8(3))
	// Escape-dominated corners: rings routed with a single virtual layer
	// (vcs%4 == 0 makes k = 1), where every route shares the one escape
	// tree and the dependency slack is smallest.
	f.Add(uint8(4), uint8(2), uint8(0), uint8(0), int64(7), uint8(0), uint8(1), uint8(0))
	f.Add(uint8(4), uint8(5), uint8(1), uint8(0), int64(8), uint8(0), uint8(6), uint8(4))
	// Full-mesh families at k=1: the all-to-all fabric where the VC-free
	// engine lives; Nue's escape layer must survive the same corner.
	f.Add(uint8(5), uint8(3), uint8(1), uint8(0), int64(9), uint8(0), uint8(2), uint8(6))
	f.Add(uint8(6), uint8(4), uint8(0), uint8(0), int64(10), uint8(0), uint8(5), uint8(0))
	// Large-sparse entries (PR 8): the flat-core target regime, healthy
	// and degraded, single-layer and multi-layer.
	f.Add(uint8(7), uint8(10), uint8(0), uint8(0), int64(11), uint8(1), uint8(3), uint8(0))
	f.Add(uint8(7), uint8(40), uint8(1), uint8(0), int64(12), uint8(0), uint8(7), uint8(7))

	f.Fuzz(func(t *testing.T, kind, a, b, c uint8, seed int64, vcs, workers, failPct uint8) {
		// Both certifiers walk one lane per goroutine only when GOMAXPROCS
		// lets them; the properties below must hold with that on.
		if runtime.GOMAXPROCS(0) < 2 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		}
		tp := fuzzTopology(kind, a, b, c, seed)
		if failPct%10 > 0 {
			rng := rand.New(rand.NewSource(seed + 17))
			tp, _ = topology.InjectLinkFailures(tp, rng, float64(failPct%10)/100)
		}
		dests := tp.Net.Terminals()
		if len(dests) == 0 {
			dests = tp.Net.Switches()
		}
		k := 1 + int(vcs%4)
		w := 1 + int(workers%8)

		opts := core.DefaultOptions()
		opts.Seed = seed
		opts.Workers = w
		res, err := core.New(opts).Route(tp.Net, dests, k)
		if err != nil {
			// Nue must succeed on every connected network for any k >= 1
			// (Lemma 3); failure injection keeps the network connected.
			t.Fatalf("kind=%d k=%d workers=%d: Route failed: %v", kind%7, k, w, err)
		}

		// Lemma 1/3: every source reaches every destination over valid,
		// loop-free paths. Theorem 1/Lemma 2: the induced virtual-channel
		// dependency graph is acyclic.
		rep, err := verify.Check(tp.Net, res, nil)
		if err != nil {
			t.Fatalf("kind=%d k=%d workers=%d: %v", kind%7, k, w, err)
		}
		if !rep.DeadlockFree {
			t.Fatalf("verifier passed but reported not deadlock-free")
		}

		// Differential: the independent oracle (disjoint trusted base —
		// its own walker, dependency graph and cycle search) must agree
		// with the verifier on every fuzzed routing.
		cert, oerr := oracle.Certify(tp.Net, res, oracle.Options{MaxVCs: k})
		if oerr != nil {
			t.Fatalf("kind=%d k=%d workers=%d: verifier passed but oracle refutes: %v", kind%7, k, w, oerr)
		}

		// Suffix sharing: Check agrees with its full-walk reference count
		// for count, and so does the oracle, whose memo is separate code.
		_, ref, _ := sameAsFullWalk(t, certtest.Case{Name: "routed", Net: tp.Net, Res: res})
		if cert.Pairs != ref.Pairs || cert.MaxHops != ref.MaxHops || cert.Deps != ref.Deps || cert.Steps > ref.Steps {
			t.Fatalf("kind=%d k=%d workers=%d: oracle certificate %+v, verifier's full walk %+v", kind%7, k, w, *cert, *ref)
		}
		// The same on a corrupted table: one entry redirected to a random
		// channel is a missing turn, a loop, a cycle or nothing at all, and
		// whichever it is, both walks must report it alike.
		rng := rand.New(rand.NewSource(seed ^ 0x3c))
		bad := *res
		bad.Table = res.Table.Clone(nil)
		sws := tp.Net.Switches()
		bad.Table.Set(sws[rng.Intn(len(sws))], dests[rng.Intn(len(dests))], graph.ChannelID(rng.Intn(tp.Net.NumChannels())))
		sameAsFullWalk(t, certtest.Case{Name: "corrupted", Net: tp.Net, Res: &bad})

		// Destination-based consistency: the layer is a function of the
		// destination alone and the budget is respected.
		if res.DestLayer == nil || len(res.DestLayer) != len(res.Table.Dests()) {
			t.Fatalf("missing or mis-sized destination layer assignment")
		}
		if got := verify.RequiredVCs(res); got > k {
			t.Fatalf("uses %d virtual layers, budget was %d", got, k)
		}

		// Determinism: a different worker count must reproduce the exact
		// same forwarding state.
		opts2 := opts
		opts2.Workers = 1 + (w+3)%8
		res2, err := core.New(opts2).Route(tp.Net, dests, k)
		if err != nil {
			t.Fatalf("re-route with workers=%d failed: %v", opts2.Workers, err)
		}
		if routeHash(tp.Net, res) != routeHash(tp.Net, res2) {
			t.Fatalf("tables differ between workers=%d and workers=%d", w, opts2.Workers)
		}
	})
}
