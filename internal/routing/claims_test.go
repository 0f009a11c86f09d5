package routing_test

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/ftree"
	"repro/internal/routing/lash"
	"repro/internal/routing/minhop"
	"repro/internal/routing/updn"
)

// TestClaimsRegistry pins the claims declared by every engine: the
// differential harness keys hard failures off these, so an accidental
// flip (a negative baseline suddenly claiming deadlock freedom, or Nue
// losing its claim) must not pass silently.
func TestClaimsRegistry(t *testing.T) {
	cases := []struct {
		engine routing.Engine
		want   routing.Claims
	}{
		{updn.Engine{}, routing.Claims{DeadlockFree: true, MinVCs: 1}},
		{lash.Engine{}, routing.Claims{DeadlockFree: true, MinVCs: 1}},
		{dfsssp.Engine{}, routing.Claims{DeadlockFree: true, MinVCs: 1}},
		{ftree.Engine{}, routing.Claims{DeadlockFree: true, MinVCs: 1}},
		{dor.Engine{Datelines: true}, routing.Claims{DeadlockFree: true, MinVCs: 2}},
		{dor.Engine{}, routing.Claims{}},
		{minhop.MinHop{}, routing.Claims{}},
	}
	for _, c := range cases {
		if got := routing.ClaimsOf(c.engine); got != c.want {
			t.Errorf("%s: claims = %+v, want %+v", c.engine.Name(), got, c.want)
		}
	}
}

// TestClaimsHoldsAt checks the budget gate, including the MinVCs zero
// default.
func TestClaimsHoldsAt(t *testing.T) {
	if (routing.Claims{DeadlockFree: true}).HoldsAt(1) != true {
		t.Error("MinVCs 0 should behave as 1")
	}
	if (routing.Claims{DeadlockFree: true, MinVCs: 2}).HoldsAt(1) {
		t.Error("budget 1 must not satisfy MinVCs 2")
	}
	if (routing.Claims{}).HoldsAt(8) {
		t.Error("engines that claim nothing never hold")
	}
}
