package oracle_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/engines"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/dor"
	"repro/internal/routing/lash"
	"repro/internal/routing/minhop"
	"repro/internal/routing/updn"
	"repro/internal/topology"
)

func nueEngine(seed int64) routing.Engine {
	return engines.Nue(seed, 1)
}

// TestCertifyAcceptsSoundRoutings runs engines that claim deadlock
// freedom over their home topologies and requires a full certificate.
func TestCertifyAcceptsSoundRoutings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		tp   *topology.Topology
		eng  func(tp *topology.Topology) routing.Engine
		vcs  int
	}{
		{"nue-torus-k1", topology.Torus3D(3, 3, 2, 1, 1), func(*topology.Topology) routing.Engine { return nueEngine(1) }, 1},
		{"nue-torus-k4", topology.Torus3D(3, 3, 2, 1, 1), func(*topology.Topology) routing.Engine { return nueEngine(2) }, 4},
		{"nue-ring-k1", topology.Ring(7, 1), func(*topology.Topology) routing.Engine { return nueEngine(3) }, 1},
		{"nue-kautz", topology.Kautz(2, 2, 1, 1), func(*topology.Topology) routing.Engine { return nueEngine(4) }, 2},
		{"nue-random", topology.RandomTopology(rng, 16, 40, 2), func(*topology.Topology) routing.Engine { return nueEngine(5) }, 3},
		{"updn-random", topology.RandomTopology(rng, 12, 26, 1), func(*topology.Topology) routing.Engine { return updn.Engine{} }, 1},
		{"lash-torus", topology.Torus3D(3, 3, 1, 1, 1), func(*topology.Topology) routing.Engine { return lash.Engine{} }, 4},
		{"torus2qos", topology.Torus3D(4, 4, 2, 1, 1), func(tp *topology.Topology) routing.Engine {
			return dor.Engine{Meta: tp.Torus, Datelines: true}
		}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dests := c.tp.Net.Terminals()
			res, err := c.eng(c.tp).Route(c.tp.Net, dests, c.vcs)
			if err != nil {
				t.Fatalf("route: %v", err)
			}
			cert, err := oracle.Certify(c.tp.Net, res, oracle.Options{MaxVCs: c.vcs})
			if err != nil {
				t.Fatalf("oracle refuted a sound routing: %v", err)
			}
			if !cert.Connected || !cert.DeadlockFree {
				t.Fatalf("certificate incomplete: %+v", cert)
			}
			if cert.Pairs == 0 || cert.Deps == 0 {
				t.Fatalf("vacuous certificate (pairs=%d deps=%d): nothing was walked", cert.Pairs, cert.Deps)
			}
		})
	}
}

// TestCertifyRefutesDORRing is the canonical negative control: plain
// dimension-order routing on a 1D torus (a ring) with a single virtual
// channel induces the full-ring dependency cycle. The oracle must refute
// it and produce a self-consistent witness cycle on VL 0.
func TestCertifyRefutesDORRing(t *testing.T) {
	tp := topology.Torus3D(6, 1, 1, 1, 1)
	eng := dor.Engine{Meta: tp.Torus}
	res, err := eng.Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	_, err = oracle.Certify(tp.Net, res, oracle.Options{MaxVCs: 1})
	var cyc *oracle.CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("want CycleError, got %v", err)
	}
	if len(cyc.Witness) < 3 {
		t.Fatalf("witness too short for a ring cycle: %v", cyc.Witness)
	}
	if werr := oracle.ValidateWitness(tp.Net, cyc.Witness); werr != nil {
		t.Fatalf("fabricated witness: %v", werr)
	}
	for _, d := range cyc.Witness {
		if d.VL != 0 {
			t.Fatalf("single-VC run reported VL %d in witness %v", d.VL, cyc.Witness)
		}
		if !tp.Net.IsSwitch(d.From) || !tp.Net.IsSwitch(d.To) {
			t.Fatalf("witness includes a terminal channel: %v", d)
		}
	}
}

// TestCertifyRefutesMinHopOnRing: shortest-path routing on a ring uses
// both directions all the way around — cyclic with one VC.
func TestCertifyRefutesMinHopOnRing(t *testing.T) {
	tp := topology.Ring(6, 1)
	res, err := minhop.MinHop{}.Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	_, err = oracle.Certify(tp.Net, res, oracle.Options{})
	var cyc *oracle.CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("want CycleError, got %v", err)
	}
	if werr := oracle.ValidateWitness(tp.Net, cyc.Witness); werr != nil {
		t.Fatalf("fabricated witness: %v", werr)
	}
}

// TestCertifySkipsDisconnectedDestinations: a destination orphaned by a
// switch failure is owed no paths; the remaining fabric must still
// certify.
func TestCertifySkipsDisconnectedDestinations(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	failed := topology.FailSwitch(tp, tp.Torus.SwitchAt[1][1][0])
	res, err := nueEngine(1).Route(failed.Net, failed.Net.Terminals(), 2)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	cert, err := oracle.Certify(failed.Net, res, oracle.Options{MaxVCs: 2})
	if err != nil {
		t.Fatalf("oracle refuted faulty-but-sound routing: %v", err)
	}
	if cert.Pairs == 0 {
		t.Fatal("no pairs walked")
	}
}

// TestCertifyShapeAndBudgetViolations exercises the structural checks
// on hand-corrupted results.
func TestCertifyShapeAndBudgetViolations(t *testing.T) {
	tp := topology.Ring(4, 1)
	res, err := nueEngine(1).Route(tp.Net, tp.Net.Terminals(), 2)
	if err != nil {
		t.Fatalf("route: %v", err)
	}

	// Conflicting layer schemes.
	bad := *res
	bad.PairLayer = make([][]uint8, tp.Net.NumNodes())
	var shape *oracle.ShapeError
	if _, err := oracle.Certify(tp.Net, &bad, oracle.Options{}); !errors.As(err, &shape) {
		t.Fatalf("want ShapeError for dual layer schemes, got %v", err)
	}

	// Mis-sized DestLayer.
	bad = *res
	bad.DestLayer = bad.DestLayer[:1]
	if _, err := oracle.Certify(tp.Net, &bad, oracle.Options{}); !errors.As(err, &shape) {
		t.Fatalf("want ShapeError for short DestLayer, got %v", err)
	}

	// Destination assigned a layer beyond the declared VC usage.
	bad = *res
	bad.DestLayer = append([]uint8(nil), res.DestLayer...)
	bad.DestLayer[0] = uint8(bad.VCs)
	var budget *oracle.BudgetError
	if _, err := oracle.Certify(tp.Net, &bad, oracle.Options{}); !errors.As(err, &budget) {
		t.Fatalf("want BudgetError for out-of-range layer, got %v", err)
	}

	// External budget tighter than the result's VC usage.
	if res.VCs > 1 {
		if _, err := oracle.Certify(tp.Net, res, oracle.Options{MaxVCs: res.VCs - 1}); !errors.As(err, &budget) {
			t.Fatalf("want BudgetError for external budget, got %v", err)
		}
	}
}

// TestCertifyExplicitPaths covers the PairPath walker with a hand-built
// source-routed result on a triangle.
func TestCertifyExplicitPaths(t *testing.T) {
	b := graph.NewBuilder()
	s0, s1, s2 := b.AddSwitch("s0"), b.AddSwitch("s1"), b.AddSwitch("s2")
	b.AddLink(s0, s1)
	b.AddLink(s1, s2)
	b.AddLink(s2, s0)
	net := b.MustBuild()
	dests := []graph.NodeID{s0, s1, s2}
	table := routing.NewTable(net, dests)
	for _, d := range dests {
		for _, s := range dests {
			if s == d {
				continue
			}
			table.Set(s, d, net.FindChannel(s, d))
		}
	}
	res := &routing.Result{Algorithm: "hand", Table: table, VCs: 1}
	if _, err := oracle.Certify(net, res, oracle.Options{}); err != nil {
		t.Fatalf("direct triangle routing must certify: %v", err)
	}

	// Override one pair with a two-hop explicit path; still sound.
	res.PairPath = map[uint64][]graph.ChannelID{
		routing.PairKey(s0, s2): {net.FindChannel(s0, s1), net.FindChannel(s1, s2)},
	}
	if _, err := oracle.Certify(net, res, oracle.Options{}); err != nil {
		t.Fatalf("valid explicit path must certify: %v", err)
	}

	// A discontinuous explicit path must be caught.
	res.PairPath[routing.PairKey(s0, s2)] = []graph.ChannelID{net.FindChannel(s1, s2)}
	var perr *oracle.PathError
	if _, err := oracle.Certify(net, res, oracle.Options{}); !errors.As(err, &perr) {
		t.Fatalf("want PathError for discontinuous explicit path, got %v", err)
	}
}
