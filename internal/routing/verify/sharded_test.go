package verify_test

import (
	"reflect"
	"testing"

	"repro/internal/bfs"
	"repro/internal/certtest"
	"repro/internal/routing/verify"
)

// sameAtAllProcs asserts that Check agrees with the full-walk reference
// on c under every GOMAXPROCS, and that report (Steps included) and error
// do not depend on it.
func sameAtAllProcs(t *testing.T, c certtest.Case) (rep *verify.Report, err error) {
	t.Helper()
	certtest.AtProcs(func(p int) {
		got, _, gotErr := sameAsFullWalk(t, c)
		if p == certtest.Procs[0] {
			rep, err = got, gotErr
			return
		}
		if !reflect.DeepEqual(got, rep) || !reflect.DeepEqual(gotErr, err) {
			t.Errorf("%s: GOMAXPROCS %d: %+v, %v\nGOMAXPROCS %d: %+v, %v", c.Name, p, got, gotErr, certtest.Procs[0], rep, err)
		}
	})
	return rep, err
}

// TestShardedCheckMatchesReference: walking one lane per goroutine
// changes no verdict, error, witness or count, whatever GOMAXPROCS is.
func TestShardedCheckMatchesReference(t *testing.T) {
	t.Run("wall", func(t *testing.T) {
		sharded := 0
		for _, c := range certtest.Wall(t) {
			if _, err := sameAtAllProcs(t, c); err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
			if len(verify.DestLanes(c.Res)) > 1 {
				sharded++
			}
		}
		if sharded < 6 {
			t.Errorf("%d instances of the wall have more than one lane: the lane goroutines hardly ran", sharded)
		}
	})
	t.Run("seeds", func(t *testing.T) {
		if testing.Short() {
			t.Skip("200-seed corpus is not a -short test")
		}
		sound, refuted, shardedSound, shardedRefuted := 0, 0, 0, 0
		certtest.Seeds(t, 200, func(c certtest.Case) {
			_, err := sameAtAllProcs(t, c)
			many := len(verify.DestLanes(c.Res)) > 1
			switch {
			case err == nil:
				sound++
				if many {
					shardedSound++
				}
			default:
				refuted++
				if many {
					shardedRefuted++
				}
			}
		})
		t.Logf("%d sound and %d refuted routings, %d and %d of them on more than one lane", sound, refuted, shardedSound, shardedRefuted)
		if sound == 0 || refuted == 0 || shardedSound == 0 {
			t.Fatal("vacuous corpus")
		}
	})
	t.Run("shapes", func(t *testing.T) {
		// The lane of a packet must be a function of its destination for
		// lanes to be walked apart; every other shape is one walk.
		oneWalk := map[string]bool{
			"pairlayer-lash": true, "pairlayer-dfsssp": true, "pairlayer-alternating": true,
			"sltovl-torus2qos": true, "pairpath-exists-all": true, "pairpath-updn-partial": true,
			"half-failed": true,
		}
		for _, c := range certtest.Shapes(t) {
			if _, err := sameAtAllProcs(t, c); err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
			if got := len(verify.DestLanes(c.Res)) <= 1; got != oneWalk[c.Name] {
				t.Errorf("%s: walked as one: %v, want %v", c.Name, got, oneWalk[c.Name])
			}
		}
	})
	t.Run("planted", func(t *testing.T) {
		// A lane goroutine that meets a defect reports nothing itself: the
		// call starts over on one goroutine, and the pair it blames is the
		// first in (destination, source) order, as in the reference.
		for _, c := range certtest.Planted(t) {
			if _, err := sameAtAllProcs(t, c); err == nil {
				t.Errorf("%s: accepted", c.Name)
			}
		}
		// Nothing to blame on a pair: the lanes' dependency graphs, built
		// side by side, are cyclic.
		c := certtest.CyclicLanes(t)
		rep, err := sameAtAllProcs(t, c)
		if err == nil || !reflect.DeepEqual(rep.CyclicVLs, []int{0, 1}) || len(verify.DestLanes(c.Res)) != 2 {
			t.Errorf("%s: %+v, %v", c.Name, rep, err)
		}
	})
	t.Run("steps", func(t *testing.T) {
		want := map[string]int{"torus-8x8x8": 784896, "dragonfly-a4-p2-h2-g9": 12744}
		for _, c := range certtest.BoundInstances(t) {
			rep, err := sameAtAllProcs(t, c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if w, ok := want[c.Name]; !ok || rep.Steps != w {
				t.Errorf("%s: %d table lookups, want %d", c.Name, rep.Steps, w)
			}
		}
	})
}

// TestReachClasses: one reverse sweep per class of mutually reachable
// destinations gives every destination the set a sweep of its own gives
// it, and Check built on it agrees with the reference, which sweeps per
// destination.
func TestReachClasses(t *testing.T) {
	wantClasses := map[string]int{"half-failed": 1, "terminal-less": 1, "two-components": 2, "one-way-bridge": 2}
	for _, c := range certtest.Reach(t) {
		dests := c.Res.Table.Dests()
		of, classes := verify.SweepReach(c.Net, dests)
		if classes != wantClasses[c.Name] {
			t.Errorf("%s: %d classes swept, want %d", c.Name, classes, wantClasses[c.Name])
		}
		distinct := map[string]bool{}
		for _, d := range dests {
			if c.Net.Degree(d) == 0 {
				continue
			}
			own := bfs.Reverse(c.Net, d)
			set := of(d)
			key := make([]byte, len(set))
			for v := range set {
				if set[v] != (own.Dist[v] >= 0) {
					t.Errorf("%s: node %d reaches destination %d: class says %v, its own sweep %v", c.Name, v, d, set[v], own.Dist[v] >= 0)
				}
				if set[v] {
					key[v] = 1
				}
			}
			distinct[string(key)] = true
		}
		if len(distinct) != classes {
			t.Errorf("%s: %d distinct reach sets from %d sweeps", c.Name, len(distinct), classes)
		}
		if _, err := sameAtAllProcs(t, c); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}
