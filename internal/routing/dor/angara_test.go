package dor_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing/dor"
	"repro/internal/topology"
)

// TestCertifies50Seeds is the acceptance sweep: 50 seeded tori (the
// engine's claimed domain), degraded like the stress generator, must
// route direction-ordered and certify with the independent oracle at
// the claimed 2-lane dateline budget. Refusal is allowed only on
// degraded instances (faults beyond the first/last-step bypass) and
// must stay rare.
func TestCertifies50Seeds(t *testing.T) {
	certified, refused := 0, 0
	for seed := int64(0); seed < 100 && certified < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp := topology.Torus3D(2+rng.Intn(3), 2+rng.Intn(3), 1+rng.Intn(2), 1, 1)
		failed := 0
		if rng.Intn(2) == 0 {
			tp, failed = topology.InjectLinkFailures(tp, rng, 0.10)
		}
		eng := dor.Angara{Meta: tp.Torus}
		res, err := eng.Route(tp.Net, tp.Net.Terminals(), 2)
		if err != nil {
			if failed == 0 {
				t.Fatalf("seed %d (%s): refused a pristine torus: %v", seed, tp.Name, err)
			}
			refused++
			continue
		}
		if res.VCs != 2 {
			t.Fatalf("seed %d: result uses %d VCs, want 2", seed, res.VCs)
		}
		cert, err := oracle.Certify(tp.Net, res, oracle.Options{MaxVCs: 2})
		if err != nil {
			t.Fatalf("seed %d (%s): oracle refuted the dateline table: %v", seed, tp.Name, err)
		}
		if cert.Layers > 2 {
			t.Fatalf("seed %d: certificate reports %d layers, want <= 2", seed, cert.Layers)
		}
		certified++
	}
	t.Logf("angara sweep: %d certified, %d refused", certified, refused)
	if certified < 50 {
		t.Fatalf("only %d seeds certified in 100 draws — the bypass envelope is narrower than claimed", certified)
	}
	if refused > certified/2 {
		t.Fatalf("refusal dominates the sweep (%d refused vs %d certified)", refused, certified)
	}
}

// TestMeshSingleLane pins the mesh-mode claim: without wraparound the
// class order +x<+y<+z<-x<-y<-z is acyclic on its own, so meshes route
// on ONE lane and certify there.
func TestMeshSingleLane(t *testing.T) {
	for _, tp := range []*topology.Topology{
		topology.Mesh3D(3, 3, 1, 1, 1),
		topology.Mesh3D(2, 3, 2, 1, 1),
		topology.Mesh2D(4, 3, 1),
	} {
		eng := dor.Angara{Meta: tp.Torus}
		if c := eng.Claims(); !c.DeadlockFree || c.MinVCs != 1 {
			t.Fatalf("%s: mesh claims = %+v, want deadlock-free at 1 VC", tp.Name, c)
		}
		res, err := eng.Route(tp.Net, tp.Net.Terminals(), 1)
		if err != nil {
			t.Fatalf("%s: Route: %v", tp.Name, err)
		}
		if res.VCs != 1 {
			t.Fatalf("%s: result uses %d VCs, want 1", tp.Name, res.VCs)
		}
		if _, err := oracle.Certify(tp.Net, res, oracle.Options{MaxVCs: 1}); err != nil {
			t.Fatalf("%s: oracle refuted the single-lane mesh table: %v", tp.Name, err)
		}
	}
}

// TestBypassRoutesAroundFault pins the engine's distinguishing feature:
// when a ring link dies, the first/last-step bypass (or a ring
// direction flip) finds a path, flags the table irregular, and the
// self-verified result still certifies.
func TestBypassRoutesAroundFault(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 1, 1)
	net := tp.Net
	a := tp.Torus.SwitchAt[0][0][0]
	b := tp.Torus.SwitchAt[1][0][0]
	if !net.SetChannelFailed(net.FindChannel(a, b), true) {
		t.Fatal("could not fail the (0,0,0)-(1,0,0) link")
	}
	res, err := dor.Angara{Meta: tp.Torus}.Route(net, net.Terminals(), 2)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if res.Stats["irregular"] == 0 {
		t.Fatal("no irregular path recorded despite a dead ring link")
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 2}); err != nil {
		t.Fatalf("oracle refuted the bypassed table: %v", err)
	}
}

// TestRefusals pins the input-validation errors and the torus claim.
func TestRefusals(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	if c := (dor.Angara{Meta: tp.Torus}).Claims(); !c.DeadlockFree || c.MinVCs != 2 {
		t.Fatalf("torus claims = %+v, want deadlock-free at 2 VCs", c)
	}
	if _, err := (dor.Angara{}).Route(tp.Net, tp.Net.Terminals(), 2); err == nil {
		t.Fatal("routed without torus metadata")
	}
	if _, err := (dor.Angara{Meta: tp.Torus}).Route(tp.Net, tp.Net.Terminals(), 1); err == nil {
		t.Fatal("routed a wrapped torus on one lane")
	}
	if _, err := (dor.Angara{Meta: tp.Torus}).Route(tp.Net, tp.Net.Terminals(), 0); err == nil {
		t.Fatal("routed with a zero virtual-channel budget")
	}
}

// TestDeterministic pins table determinism: two runs over the same
// degraded torus produce identical next-hops (the oracle's replay
// contract depends on it).
func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tp, _ := topology.InjectLinkFailures(topology.Torus3D(3, 3, 2, 1, 1), rng, 0.10)
	eng := dor.Angara{Meta: tp.Torus}
	a, errA := eng.Route(tp.Net, tp.Net.Terminals(), 2)
	b, errB := eng.Route(tp.Net, tp.Net.Terminals(), 2)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("nondeterministic refusal: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	for _, d := range a.Table.Dests() {
		for n := 0; n < tp.Net.NumNodes(); n++ {
			id := graph.NodeID(n)
			if a.Table.Next(id, d) != b.Table.Next(id, d) {
				t.Fatalf("next-hop for (%d,%d) differs between identical runs", n, d)
			}
		}
	}
}
