package oracle_test

// Mutation tests for the frontier engines: corrupt a certified Angara
// and a certified full-mesh table in the precise ways their
// deadlock-freedom arguments forbid — a turn that violates the
// direction-class order, an intermediate that breaks rank
// monotonicity — and require the oracle to refute with a validated
// dependency-cycle witness. If no single corruption closes a cycle,
// the engines' acyclicity arguments were never load-bearing and the
// differential harness is vacuous for them.

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/dor"
	"repro/internal/routing/fullmesh"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// sweepSwaps runs the all-swaps mutation sweep over every switch table
// entry: each live alternative next hop is swapped in, the oracle and
// the in-tree verifier are required to agree, and every cycle
// refutation must carry an independently validated witness. It returns
// the number of cycle-refuted mutants.
func sweepSwaps(t *testing.T, net *graph.Network, res *routing.Result, maxVCs int) int {
	t.Helper()
	cycles, loops, clean := 0, 0, 0
	for _, sw := range net.Switches() {
		for _, d := range res.Table.Dests() {
			cur := res.Table.Next(sw, d)
			if cur == graph.NoChannel {
				continue
			}
			for _, alt := range net.Out(sw) {
				if alt == cur || net.IsTerminal(net.Channel(alt).To) {
					continue
				}
				mutateEntry(res.Table, sw, d, alt, func() {
					_, oerr := oracle.Certify(net, res, oracle.Options{MaxVCs: maxVCs})
					_, verr := verify.Check(net, res, nil)
					if (oerr == nil) != (verr == nil) {
						t.Fatalf("oracle and verify disagree on mutant (sw=%d dest=%d alt=%d): oracle=%v verify=%v",
							sw, d, alt, oerr, verr)
					}
					var cyc *oracle.CycleError
					switch {
					case errors.As(oerr, &cyc):
						cycles++
						if werr := oracle.ValidateWitness(net, cyc.Witness); werr != nil {
							t.Fatalf("invalid witness for mutant (sw=%d dest=%d alt=%d): %v", sw, d, alt, werr)
						}
					case oerr != nil:
						loops++
					default:
						clean++
					}
				})
			}
		}
	}
	t.Logf("mutants: %d cycle-refuted, %d otherwise-refuted, %d benign", cycles, loops, clean)
	return cycles
}

// TestMutationAngaraTurnViolation mutates a certified Angara mesh table
// (single lane — the regime where the direction-class order carries the
// whole deadlock-freedom argument) by swapping next hops. A swap sends
// traffic out of class order (e.g. a negative-direction hop followed by
// a positive one), and at least one such forbidden turn must close a
// dependency cycle the oracle refutes with an exact witness.
func TestMutationAngaraTurnViolation(t *testing.T) {
	tp := topology.Mesh3D(3, 3, 1, 1, 1)
	net := tp.Net
	res, err := (dor.Angara{Meta: tp.Torus}).Route(net, net.Terminals(), 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("baseline must certify before mutating: %v", err)
	}
	if sweepSwaps(t, net, res, 1) == 0 {
		t.Fatal("no turn-restriction violation produced a dependency-cycle refutation: the class-order argument is vacuous")
	}
	// Restoration sanity: the unmutated table still certifies.
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("restored table no longer certifies: %v", err)
	}
}

// TestMutationAngaraDateline covers the wrapped regime: on a torus the
// dateline lane split is the load-bearing argument, and a swapped next
// hop that rides a wrap link on the wrong lane must be refuted.
func TestMutationAngaraDateline(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 1, 1)
	net := tp.Net
	res, err := (dor.Angara{Meta: tp.Torus}).Route(net, net.Terminals(), 2)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 2}); err != nil {
		t.Fatalf("baseline must certify before mutating: %v", err)
	}
	if sweepSwaps(t, net, res, 2) == 0 {
		t.Fatal("no dateline violation produced a dependency-cycle refutation")
	}
}

// TestMutationFullMeshIntermediate mutates a certified VC-free
// full-mesh table on a degraded mesh (faults force indirect, ascending
// paths — a pristine mesh routes everything in one hop and a single
// swap cannot close a cycle). Swapping an intermediate to a
// non-monotone choice must close a dependency cycle on the single lane,
// and the oracle must present the exact witness.
func TestMutationFullMeshIntermediate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tp := topology.FullMesh(7, 1)
	// Deterministically degrade until an instance appears whose
	// dependency graph is dense enough that one non-monotone swap closes
	// a cycle (a lightly-degraded mesh routes almost everything in one
	// hop, and a lone descending hop has nothing to chain with).
	for attempt := 0; attempt < 200; attempt++ {
		cand, _ := topology.InjectLinkFailures(tp, rng, 0.25)
		net := cand.Net
		res, err := (fullmesh.Engine{Meta: cand.Mesh}).Route(net, net.Terminals(), 1)
		if err != nil || res.Stats["indirect"] < 3 {
			continue
		}
		if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
			t.Fatalf("baseline must certify before mutating: %v", err)
		}
		if sweepSwaps(t, net, res, 1) == 0 {
			continue
		}
		// Restoration sanity: the unmutated table still certifies.
		if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
			t.Fatalf("restored table no longer certifies: %v", err)
		}
		return
	}
	t.Fatal("no intermediate swap produced a dependency-cycle refutation: rank monotonicity is vacuous")
}
