package oracle_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/certtest"
	"repro/internal/engines"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// perCall runs f runs times and returns the median bytes and mallocs one
// call allocated, so that an allocation of the runtime's own that lands
// in one call does not decide the reading.
func perCall(runs int, f func()) (bytes, mallocs uint64) {
	var b, m []uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		b = append(b, after.TotalAlloc-before.TotalAlloc)
		m = append(m, after.Mallocs-before.Mallocs)
	}
	slices.Sort(b)
	slices.Sort(m)
	return b[runs/2], m[runs/2]
}

// TestCertifierAllocs pins what a warm certification allocates: the
// certifiers keep their scratch from call to call (dependency graph,
// search stacks, walkers, reach sweep, default sources), so a warm call
// allocates its report or certificate and its goroutines' closures. On
// Dragonfly(4,2,2,9) and Torus3D(4,4,3,1,1) at 4 VCs, with a fresh
// scratch per call, verify.Check allocated 84 KB in 1,467 mallocs and
// 94 KB in 1,925, oracle.Certify 80 KB in 2,404 and 98 KB in 3,191, and
// oracle.CertifyTransition 61 KB in 1,404 and 80 KB in 2,406.
func TestCertifierAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   *topology.Topology
	}{
		{"dragonfly", topology.Dragonfly(4, 2, 2, 9)},
		{"torus", topology.Torus3D(4, 4, 3, 1, 1)},
	} {
		net := tc.tp.Net
		res, err := engines.Nue(1, 1).Route(net, net.Terminals(), 4)
		if err != nil {
			t.Fatal(err)
		}
		old := &routing.Result{Table: res.Table.Clone(nil), DestLayer: res.DestLayer, VCs: res.VCs}
		for _, call := range []struct {
			name                string
			maxBytes, maxMalloc uint64
			f                   func() error
		}{
			{"verify.Check", 2048, 24, func() error { _, err := verify.Check(net, res, nil); return err }},
			{"oracle.Certify", 2048, 24, func() error { _, err := oracle.Certify(net, res, oracle.Options{}); return err }},
			{"oracle.CertifyTransition", 2048, 24, func() error { _, err := oracle.CertifyTransition(net, old, res, oracle.Options{}); return err }},
		} {
			if err := call.f(); err != nil {
				t.Fatalf("%s %s: %v", tc.name, call.name, err)
			}
			bytes, mallocs := perCall(21, func() { call.f() })
			t.Logf("%s %s: %d bytes in %d mallocs", tc.name, call.name, bytes, mallocs)
			if bytes > call.maxBytes || mallocs > call.maxMalloc {
				t.Errorf("%s: warm %s allocated %d bytes in %d mallocs, want at most %d in %d",
					tc.name, call.name, bytes, mallocs, call.maxBytes, call.maxMalloc)
			}
		}
	}
}

// TestCertifierBytesProportional guards the trap a graph sized for every
// vertex up front falls into: a 32-destination route on the 16×16×16
// torus records dependencies on a part of its 131,072 (channel, lane)
// vertices, and a certifier that allocates per vertex — or grows its
// arrays by append, which copies them at every step — pays more than the
// graph it records. A Certify call from a dropped scratch must allocate
// no more than it did with one adjacency slice per vertex, on two cores:
// 6,503,488 bytes (verify.TestCheckBytesProportional holds Check to its
// share, 6,683,544).
func TestCertifierBytesProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a 4,096-switch torus")
	}
	c := certtest.ColdShapes(t)[1]
	const lists = 6_503_488
	oracle.DropScratch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := oracle.Certify(c.Net, c.Res, oracle.Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("a cold oracle.Certify allocated %d bytes, adjacency lists %d", bytes, lists)
	if bytes > lists {
		t.Errorf("a cold oracle.Certify allocated %d bytes, more than the %d of per-vertex adjacency lists", bytes, lists)
	}
}

// TestCertifierWarmBytes: on the 16×16×16 torus with 32 destinations, a
// warm verify.Check plus oracle.Certify allocates at most 64 KB. With a
// fresh scratch per call the two allocated 8.38 MB.
func TestCertifierWarmBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("routes a 4,096-switch torus")
	}
	c := certtest.ColdShapes(t)[1]
	both := func() {
		if _, err := verify.Check(c.Net, c.Res, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Certify(c.Net, c.Res, oracle.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	both()
	bytes, mallocs := perCall(5, both)
	t.Logf("a warm verify.Check + oracle.Certify allocated %d bytes in %d mallocs", bytes, mallocs)
	if bytes > 64<<10 {
		t.Errorf("a warm verify.Check + oracle.Certify allocated %d bytes, more than 64 KB", bytes)
	}
}

// BenchmarkCertify times the three certifier entry points, warm, on the
// benchmark's two cold shapes (certtest.ColdShapes); the transition
// certifies the route against itself. B/op is what a warm call
// allocates; the profile of a cold call is that of the first:
//
//	go test -run '^$' -bench BenchmarkCertify -benchmem -memprofile mem.out -memprofilerate 1 ./internal/oracle
func BenchmarkCertify(b *testing.B) {
	for _, c := range certtest.ColdShapes(b) {
		for _, call := range []struct {
			name string
			f    func() error
		}{
			{"Check", func() error { _, err := verify.Check(c.Net, c.Res, nil); return err }},
			{"Certify", func() error { _, err := oracle.Certify(c.Net, c.Res, oracle.Options{}); return err }},
			{"CertifyTransition", func() error {
				_, err := oracle.CertifyTransition(c.Net, c.Res, c.Res, oracle.Options{})
				return err
			}},
		} {
			b.Run(c.Name+"/"+call.name, func(b *testing.B) {
				if err := call.f(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := call.f(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
