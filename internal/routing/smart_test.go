package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/routing/smart"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

func TestSmartRoutingRing(t *testing.T) {
	// Minimal routing on a 5-ring is cyclic; smart routing must cut
	// dependencies (lengthening some paths) until acyclic — with one VC.
	tp := topology.Ring(5, 1)
	res, err := (smart.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatalf("smart on a 5-ring: %v", err)
	}
	if res.VCs != 1 {
		t.Errorf("VCs = %d, want 1", res.VCs)
	}
	if res.Stats["prohibitions"] == 0 {
		t.Error("no dependencies were cut on a ring")
	}
	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.DeadlockFree {
		t.Fatal("not deadlock free")
	}
}

func TestSmartRoutingSmallTorus(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	res, err := (smart.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Skipf("smart routing impasse (documented behavior): %v", err)
	}
	if _, err := verify.Check(tp.Net, res, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestSmartRoutingEventuallyImpassesOrSolves(t *testing.T) {
	// On larger irregular networks smart routing either solves the
	// instance or reports the impasse Cherkasova et al. describe — it
	// must never return unverified tables.
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp := topology.RandomTopology(rng, 16, 40, 2)
		res, err := (smart.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1)
		if err != nil {
			t.Logf("seed %d: impasse: %v", seed, err)
			continue
		}
		if _, err := verify.Check(tp.Net, res, nil); err != nil {
			t.Errorf("seed %d: unverified tables: %v", seed, err)
		}
	}
}

// TestSmartImpasseErrorIsStable: an impasse names the first destination,
// in dests order, that the cut left unreachable — the same one on every
// run, so two runs over one fabric can be compared by their error.
func TestSmartImpasseErrorIsStable(t *testing.T) {
	tp := topology.Dragonfly(4, 2, 2, 9)
	var first string
	for run := 0; run < 20; run++ {
		_, err := (smart.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1)
		if err == nil {
			t.Fatal("fixture no longer reaches an impasse")
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d: %q, run 0: %q", run, err, first)
		}
	}
}
