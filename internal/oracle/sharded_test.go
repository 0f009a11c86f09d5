package oracle_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/certtest"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
)

// sameAtAllProcs asserts that Certify agrees with the full-walk reference
// on c under every GOMAXPROCS, and that certificate (Steps included) and
// typed error do not depend on it.
func sameAtAllProcs(t *testing.T, c certtest.Case) (cert *oracle.Certificate, err error) {
	t.Helper()
	certtest.AtProcs(func(p int) {
		got, _, gotErr := sameAsFullWalk(t, c)
		if p == certtest.Procs[0] {
			cert, err = got, gotErr
			return
		}
		if !reflect.DeepEqual(got, cert) || !reflect.DeepEqual(gotErr, err) {
			t.Errorf("%s: GOMAXPROCS %d: %+v, %v\nGOMAXPROCS %d: %+v, %v", c.Name, p, got, gotErr, certtest.Procs[0], cert, err)
		}
	})
	return cert, err
}

// manyLanes reports whether Certify may walk res one lane per goroutine.
func manyLanes(res *routing.Result) bool {
	if res.DestLayer == nil || res.PairLayer != nil || res.SLToVL != nil || res.PairPath != nil {
		return false
	}
	for _, l := range res.DestLayer {
		if l != res.DestLayer[0] {
			return true
		}
	}
	return false
}

// TestShardedCertifyMatchesReference: walking one lane per goroutine
// changes no verdict, typed error, witness or count, whatever GOMAXPROCS
// is.
func TestShardedCertifyMatchesReference(t *testing.T) {
	t.Run("wall", func(t *testing.T) {
		for _, c := range certtest.Wall(t) {
			if _, err := sameAtAllProcs(t, c); err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
		}
	})
	t.Run("seeds", func(t *testing.T) {
		if testing.Short() {
			t.Skip("200-seed corpus is not a -short test")
		}
		sound, refuted, sharded := 0, 0, 0
		certtest.Seeds(t, 200, func(c certtest.Case) {
			if _, err := sameAtAllProcs(t, c); err != nil {
				refuted++
			} else {
				sound++
			}
			if manyLanes(c.Res) {
				sharded++
			}
		})
		t.Logf("%d sound and %d refuted routings, %d on more than one lane", sound, refuted, sharded)
		if sound == 0 || refuted == 0 || sharded == 0 {
			t.Fatal("vacuous corpus")
		}
	})
	t.Run("shapes", func(t *testing.T) {
		for _, c := range certtest.Shapes(t) {
			if _, err := sameAtAllProcs(t, c); err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
		}
	})
	t.Run("planted", func(t *testing.T) {
		// A lane goroutine that meets a defect reports nothing itself: the
		// call starts over on one goroutine, and the pair it blames is the
		// first in (destination, source) order, as in the reference.
		sharded := 0
		for _, c := range certtest.Planted(t) {
			if _, err := sameAtAllProcs(t, c); err == nil {
				t.Errorf("%s: accepted", c.Name)
			}
			if manyLanes(c.Res) {
				sharded++
			}
		}
		if sharded == 0 {
			t.Error("no planted defect sits in a result with more than one lane")
		}
		// Nothing to blame on a pair: the lanes' dependency graphs, built
		// side by side, are cyclic, and the witness is the one a single
		// goroutine finds.
		c := certtest.CyclicLanes(t)
		cert, err := sameAtAllProcs(t, c)
		var cyc *oracle.CycleError
		if !errors.As(err, &cyc) || !cert.Connected || !manyLanes(c.Res) {
			t.Fatalf("%s: %+v, %v", c.Name, cert, err)
		}
		if err := oracle.ValidateWitness(c.Net, cyc.Witness); err != nil {
			t.Errorf("%s: witness: %v", c.Name, err)
		}
	})
	t.Run("steps", func(t *testing.T) {
		want := map[string]int{"torus-8x8x8": 784896, "dragonfly-a4-p2-h2-g9": 12744}
		for _, c := range certtest.BoundInstances(t) {
			cert, err := sameAtAllProcs(t, c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if w, ok := want[c.Name]; !ok || cert.Steps != w {
				t.Errorf("%s: %d table lookups, want %d", c.Name, cert.Steps, w)
			}
		}
	})
}

// TestShardedTransitionMatchesOneWalk: CertifyTransition builds the union
// one lane per goroutine; certificate and typed error, witness included,
// are those of the single walk GOMAXPROCS 1 takes — over the epoch
// changes of the control plane's 200-seed churn sweep, and over unions in
// which destinations change layer, certified and refuted.
func TestShardedTransitionMatchesOneWalk(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 12
	}
	same := func(tr certtest.Transition) (cert *oracle.TransitionCertificate, err error) {
		certtest.AtProcs(func(p int) {
			got, gotErr := oracle.CertifyTransition(tr.Net, tr.Old, tr.New, oracle.Options{})
			if p == certtest.Procs[0] {
				cert, err = got, gotErr
				return
			}
			if !reflect.DeepEqual(got, cert) || !reflect.DeepEqual(gotErr, err) {
				t.Errorf("%s: GOMAXPROCS %d: %+v, %v\nGOMAXPROCS %d: %+v, %v", tr.Name, p, got, gotErr, certtest.Procs[0], cert, err)
			}
		})
		return cert, err
	}
	moved := func(tr certtest.Transition) bool {
		return tr.Old.DestLayer != nil && tr.New.DestLayer != nil && !reflect.DeepEqual(tr.Old.DestLayer, tr.New.DestLayer)
	}
	certified, refuted, sharded, movers := 0, 0, 0, 0
	tally := func(tr certtest.Transition) {
		_, err := same(tr)
		var cyc *oracle.CycleError
		switch {
		case err == nil:
			certified++
		case errors.As(err, &cyc):
			refuted++
		default:
			t.Errorf("%s: %v", tr.Name, err)
		}
		if manyLanes(tr.Old) || manyLanes(tr.New) {
			sharded++
		}
		if moved(tr) {
			movers++
		}
	}
	certtest.Transitions(t, n, tally)
	t.Logf("churn: %d unions certified, %d refuted, %d on more than one lane, %d with a destination that changes layer", certified, refuted, sharded, movers)
	if certified == 0 || refuted == 0 || sharded == 0 {
		t.Fatal("vacuous corpus")
	}

	// Destinations that change layer belong to two lanes at once, and the
	// churn sweep has none. Constructed here: the first single move that
	// leaves the union acyclic, the first that does not, two routings of
	// one torus from different seeds (no layer assignment or tree in
	// common), and a move to a lane past the budget, which stops the
	// union at that destination's column.
	c := certtest.Shapes(t)[0]
	move := func(i int, lane uint8) *routing.Result {
		res := *c.Res
		res.DestLayer = append([]uint8(nil), c.Res.DestLayer...)
		res.DestLayer[i] = lane
		return &res
	}
	var clean, dirty *routing.Result
	for i := 0; i < len(c.Res.DestLayer) && (clean == nil || dirty == nil); i++ {
		to := move(i, (c.Res.DestLayer[i]+1)%uint8(c.Res.VCs))
		if _, err := oracle.CertifyTransition(c.Net, c.Res, to, oracle.Options{}); err == nil && clean == nil {
			clean = to
		} else if err != nil && dirty == nil {
			dirty = to
		}
	}
	if clean == nil || dirty == nil {
		t.Fatalf("no single move certifies (%v) or none is refuted (%v)", clean == nil, dirty == nil)
	}
	before := movers
	for _, tr := range []certtest.Transition{
		{Name: "move-certified", Net: c.Net, Old: c.Res, New: clean},
		{Name: "move-refuted", Net: c.Net, Old: c.Res, New: dirty},
		{Name: "reseeded", Net: c.Net, Old: c.Res, New: certtest.Nue(t, c.Net, 4, c.Res.VCs)},
	} {
		tally(tr)
	}
	if movers-before != 3 || !manyLanes(c.Res) {
		t.Errorf("%d of the 3 constructed unions move a destination", movers-before)
	}
	cert, err := same(certtest.Transition{Name: "lane-past-budget", Net: c.Net, Old: c.Res, New: move(1, uint8(c.Res.VCs))})
	var budget *oracle.BudgetError
	if !errors.As(err, &budget) || cert.Dests != 1 {
		t.Errorf("lane-past-budget: %+v, %v", *cert, err)
	}
}

// TestReachClasses: one reverse sweep per class of mutually reachable
// destinations gives every destination the set a sweep of its own gives
// it, and Certify built on it agrees with the reference, which sweeps per
// destination.
func TestReachClasses(t *testing.T) {
	wantClasses := map[string]int{"half-failed": 1, "terminal-less": 1, "two-components": 2, "one-way-bridge": 2}
	for _, c := range certtest.Reach(t) {
		dests := c.Res.Table.Dests()
		of, classes := oracle.SweepReach(c.Net, dests)
		if classes != wantClasses[c.Name] {
			t.Errorf("%s: %d classes swept, want %d", c.Name, classes, wantClasses[c.Name])
		}
		for _, d := range dests {
			if len(c.Net.Out(d)) == 0 {
				continue
			}
			own := graph.ReverseBFS(c.Net, d)
			for v, in := range of(d) {
				if in != (own.Dist[v] >= 0) {
					t.Errorf("%s: node %d reaches destination %d: class says %v, its own sweep %v", c.Name, v, d, in, own.Dist[v] >= 0)
				}
			}
		}
		if _, err := sameAtAllProcs(t, c); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}
