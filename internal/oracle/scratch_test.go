package oracle_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/certtest"
	"repro/internal/oracle"
)

// answer is what one certification returned: a certificate or a
// transition certificate, and an error.
type answer struct {
	cert any
	err  error
}

// mixedTransitions pairs the cases of certtest.Mixed into epoch changes
// of the same kinds: the large routing kept, the cyclic and looping ones
// kept (a union holds each epoch's dependencies), the unreachable pair's,
// the large one with its last destination moved to a lane past the
// budget, the islands kept, and a small epoch change of the fabric
// manager for the per-pair layers, which no transition takes.
func mixedTransitions(t *testing.T, cases []certtest.Case) []certtest.Transition {
	out := make([]certtest.Transition, len(cases))
	for i, c := range cases {
		out[i] = certtest.Transition{Name: c.Name, Net: c.Net, Old: c.Res, New: c.Res}
	}
	over := *cases[0].Res
	over.DestLayer = append([]uint8(nil), over.DestLayer...)
	over.DestLayer[len(over.DestLayer)-1] = uint8(over.VCs)
	out[4] = certtest.Transition{Name: "over-budget", Net: cases[0].Net, Old: cases[0].Res, New: &over}
	small := len(cases) - 2 // per-pair layers: no transition shape
	certtest.Transitions(t, 1, func(tr certtest.Transition) {
		if out[small].Name == cases[small].Name {
			out[small] = tr
		}
	})
	return out
}

// sameFromKeptScratch runs call i of the sequence for each kind once
// from a dropped scratch, checking that its error has that type ("" for
// none), and then on one kept scratch under every GOMAXPROCS of
// certtest.Procs, and on two goroutines at once: every answer must be
// the dropped scratch's, and no call may change what an earlier one
// returned.
func sameFromKeptScratch(t *testing.T, name string, kinds []string, f func(i int) answer) {
	want := make([]answer, len(kinds))
	for i, kind := range kinds {
		oracle.DropScratch()
		want[i] = f(i)
		if got := reflect.TypeOf(want[i].err); (got == nil) != (kind == "") || got != nil && got.String() != kind {
			t.Errorf("%s call %d: %v, want a %s", name, i, want[i].err, kind)
		}
	}
	oracle.DropScratch()
	certtest.AtProcs(func(p int) {
		var got []answer
		for i := range want {
			a := f(i)
			if !reflect.DeepEqual(a, want[i]) {
				t.Errorf("%s GOMAXPROCS %d, call %d on a kept scratch: %+v\nfrom a dropped scratch: %+v", name, p, i, a, want[i])
			}
			got = append(got, a)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s GOMAXPROCS %d, call %d changed after later calls: %+v", name, p, i, got[i])
			}
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				if a := f(i); !reflect.DeepEqual(a, want[i]) {
					t.Errorf("%s goroutine %d, call %d: %+v, want %+v", name, g, i, a, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecycledScratchCarriesNoVerdict: Certify and CertifyTransition
// each keep one scratch from call to call through sound and unsound
// results of different sizes and shapes (certtest.Mixed); every
// certificate, typed error and witness is the one a call from a dropped
// scratch returns. Run it under -race for the two goroutines.
func TestRecycledScratchCarriesNoVerdict(t *testing.T) {
	cases := certtest.Mixed(t)
	sameFromKeptScratch(t, "Certify", []string{"", "*oracle.CycleError", "*oracle.UnreachableError",
		"*oracle.LoopError", "*oracle.BudgetError", "", "", "", ""}, func(i int) answer {
		cert, err := oracle.Certify(cases[i].Net, cases[i].Res, oracle.Options{Sources: cases[i].Sources})
		return answer{cert, err}
	})
	trs := mixedTransitions(t, cases)
	sameFromKeptScratch(t, "CertifyTransition", []string{"", "*oracle.CycleError", "",
		"*oracle.CycleError", "*oracle.BudgetError", "", "", "", ""}, func(i int) answer {
		cert, err := oracle.CertifyTransition(trs[i].Net, trs[i].Old, trs[i].New, oracle.Options{})
		return answer{cert, err}
	})
}
