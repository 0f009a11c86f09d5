package verify_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/certtest"
	"repro/internal/routing/verify"
)

// checked is what one Check call returned.
type checked struct {
	rep *verify.Report
	err error
}

// coldChecks runs Check on each case from a dropped scratch.
func coldChecks(cases []certtest.Case) []checked {
	out := make([]checked, len(cases))
	for i, c := range cases {
		verify.DropScratch()
		rep, err := verify.Check(c.Net, c.Res, c.Sources)
		out[i] = checked{rep, err}
	}
	verify.DropScratch()
	return out
}

// TestRecycledScratchCarriesNoVerdict: one scratch, kept from call to call
// through sound and unsound results of different sizes and shapes and
// under every GOMAXPROCS of certtest.Procs, gives every call the report
// and error a call from a dropped scratch gives, and no call changes what
// an earlier one returned. Two goroutines checking at once (run it under
// -race) each get the same answers too.
func TestRecycledScratchCarriesNoVerdict(t *testing.T) {
	cases := certtest.Mixed(t)
	want := coldChecks(cases)
	for i, c := range want {
		if (c.err == nil) != (i == 0 || i > 4) {
			t.Fatalf("call %d (%s): %v; want errors from calls 1-4 only", i, cases[i].Name, c.err)
		}
	}
	certtest.AtProcs(func(p int) {
		var got []checked
		for i, c := range cases {
			rep, err := verify.Check(c.Net, c.Res, c.Sources)
			if !reflect.DeepEqual(checked{rep, err}, want[i]) {
				t.Errorf("GOMAXPROCS %d, call %d (%s) on a kept scratch: %+v, %v\nfrom a dropped scratch: %+v, %v",
					p, i, c.Name, rep, err, want[i].rep, want[i].err)
			}
			got = append(got, checked{rep, err})
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("GOMAXPROCS %d, call %d (%s) changed after later calls: %+v, %v", p, i, cases[i].Name, got[i].rep, got[i].err)
			}
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range cases {
				rep, err := verify.Check(c.Net, c.Res, c.Sources)
				if !reflect.DeepEqual(checked{rep, err}, want[i]) {
					t.Errorf("goroutine %d, call %d (%s): %+v, %v, want %+v, %v", g, i, c.Name, rep, err, want[i].rep, want[i].err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCheckBytesProportional guards the trap a graph sized for every
// vertex up front falls into: a 32-destination route on the 16×16×16
// torus records dependencies on a part of its 131,072 (channel, lane)
// vertices, and a Check that allocates per vertex — or grows its arrays
// by append, which copies them at every step — pays more than the graph
// it records. A call from a dropped scratch must allocate no more than
// Check did with one adjacency slice per vertex, on two cores: 6,683,544
// bytes (oracle.TestCertifierBytesProportional holds Certify to its
// share).
func TestCheckBytesProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a 4,096-switch torus")
	}
	c := certtest.ColdShapes(t)[1]
	const lists = 6_683_544
	verify.DropScratch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := verify.Check(c.Net, c.Res, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("a cold verify.Check allocated %d bytes, adjacency lists %d", bytes, lists)
	if bytes > lists {
		t.Errorf("a cold verify.Check allocated %d bytes, more than the %d of per-vertex adjacency lists", bytes, lists)
	}
}
