package verify_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/certtest"
	"repro/internal/routing"
	"repro/internal/routing/verify"
)

// sameAsFullWalk asserts Check and the full-walk reference agree on c:
// verdict, the error (text, and for a walk failure its pair, node, hop
// and kind) and every count of the report. Steps is the one field allowed
// to differ — it may only be smaller.
func sameAsFullWalk(t testing.TB, c certtest.Case) (got, want *verify.Report, err error) {
	t.Helper()
	want, wantErr := verify.ReferenceCheck(c.Net, c.Res, c.Sources)
	got, gotErr := verify.Check(c.Net, c.Res, c.Sources)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Errorf("%s: Check: %v\nfull walk: %v", c.Name, gotErr, wantErr)
		return got, want, gotErr
	}
	var gw, ww *routing.WalkError
	if errors.As(gotErr, &gw) != errors.As(wantErr, &ww) || gw != nil && *gw != *ww {
		t.Errorf("%s: walk error %+v, full walk %+v", c.Name, gw, ww)
	}
	if got.Steps > want.Steps {
		t.Errorf("%s: %d steps, more than the full walk's %d", c.Name, got.Steps, want.Steps)
	}
	g, w := *got, *want
	g.Steps, w.Steps = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: report %+v, full walk %+v", c.Name, g, w)
	}
	return got, want, gotErr
}

// TestSuffixSharedMatchesFullWalk: stopping a walk at a settled node
// changes no verdict, witness or count — on the golden wall, on every
// routing of the 200-seed stress corpus (sound and refuted), and on each
// shape a result can take.
func TestSuffixSharedMatchesFullWalk(t *testing.T) {
	t.Run("wall", func(t *testing.T) {
		for _, c := range certtest.Wall(t) {
			if _, _, err := sameAsFullWalk(t, c); err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
		}
	})
	t.Run("seeds", func(t *testing.T) {
		if testing.Short() {
			t.Skip("200-seed corpus is not a -short test")
		}
		sound, refuted, saved := 0, 0, 0
		certtest.Seeds(t, 200, func(c certtest.Case) {
			got, want, err := sameAsFullWalk(t, c)
			if err != nil {
				refuted++
				return
			}
			sound++
			saved += want.Steps - got.Steps
		})
		t.Logf("%d sound and %d refuted routings, %d table lookups saved", sound, refuted, saved)
		if sound == 0 || refuted == 0 || saved == 0 {
			t.Fatal("vacuous corpus: the differential never saw both verdicts, or no walk ever joined another")
		}
	})
	t.Run("shapes", func(t *testing.T) {
		for _, c := range certtest.Shapes(t) {
			got, want, err := sameAsFullWalk(t, c)
			if err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
			if got.Steps == want.Steps && len(c.Res.PairPath) == 0 {
				t.Errorf("%s: no walk joined an earlier one (%d steps)", c.Name, got.Steps)
			}
		}
	})
}

// TestSuffixSharedBothLanes: two sources of one destination on different
// lanes share the table suffix s1 -> s2 -> d; the dependency along it is
// owed once per lane, although the second source finds every node of it
// already walked.
func TestSuffixSharedBothLanes(t *testing.T) {
	got, _, err := sameAsFullWalk(t, certtest.TwoLanes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Deps != 5 || got.Pairs != 2 || got.MaxHops != 4 {
		t.Errorf("deps %d pairs %d max hops %d, want 5, 2, 4", got.Deps, got.Pairs, got.MaxHops)
	}
}

// TestSuffixSharedPlantedDefects: a defect planted in the suffix every
// path to a destination shares, or in an entry only the last source
// uses, is refused with the error, pair, node and hop the full walk
// reports.
func TestSuffixSharedPlantedDefects(t *testing.T) {
	for _, c := range certtest.Planted(t) {
		if _, _, err := sameAsFullWalk(t, c); err == nil {
			t.Errorf("%s: accepted", c.Name)
		} else {
			t.Logf("%s: %v", c.Name, err)
		}
	}
}

// TestStepsBound pins the complexity: per destination Check looks up at
// most one table entry per node that reaches it, plus one per owed pair
// for the junction — where the full walk looks up one per hop of every
// path.
func TestStepsBound(t *testing.T) {
	for _, c := range certtest.BoundInstances(t) {
		got, want, err := sameAsFullWalk(t, c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		bound := certtest.ReachSum(c) + got.Pairs
		t.Logf("%s: %d pairs, %d steps (bound %d), full walk %d", c.Name, got.Pairs, got.Steps, bound, want.Steps)
		if got.Steps > bound {
			t.Errorf("%s: %d steps exceed the bound %d", c.Name, got.Steps, bound)
		}
		if want.Steps <= bound {
			t.Errorf("%s: the full walk's %d steps are within the bound %d: the instance pins nothing", c.Name, want.Steps, bound)
		}
	}
}
