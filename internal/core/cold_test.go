package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// coldShape is one fabric of the repository benchmark's cold-* workloads:
// a dims³ torus with one terminal per switch, routed toward every
// terminal or toward a sample of them, picked by a stride walk from the
// first terminal.
type coldShape struct {
	name   string
	dims   int
	sample int // 0: every terminal
}

var coldShapes = []coldShape{
	{"torus512", 8, 0},     // cold-torus512
	{"torus4k-32", 16, 32}, // cold-torus4k
}

func (s coldShape) build() (*graph.Network, []graph.NodeID) {
	net := topology.Torus3D(s.dims, s.dims, s.dims, 1, 1).Net
	dests := net.Terminals()
	if s.sample > 0 {
		stride := len(dests) / s.sample
		for i := range s.sample {
			dests[i] = dests[i*stride]
		}
		dests = dests[:s.sample]
	}
	return net, dests
}

// coldVCs is the layer budget of the cold workloads.
const coldVCs = 4

// BenchmarkRoute times one warm Route per cold shape, with the default
// options at seed 1 and all of GOMAXPROCS. Its profiles are the
// decomposition of a cold op's engine share (EXPERIMENTS.md):
//
//	go test -run '^$' -bench BenchmarkRoute -cpuprofile cpu.out -memprofile mem.out ./internal/core
func BenchmarkRoute(b *testing.B) {
	for _, s := range coldShapes {
		b.Run(s.name, func(b *testing.B) {
			net, dests := s.build()
			opts := DefaultOptions()
			opts.Seed = 1
			eng := New(opts)
			// The first route fills the engine's free lists.
			if _, err := eng.Route(net, dests, coldVCs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Route(net, dests, coldVCs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRouteAllocs: a warm Route of the sampled 16³ cold shape allocates
// little more than the table and the result it returns. The k-way
// partition, the root choices and Algorithm 1's backtracking all run on
// recycled scratch.
func TestRouteAllocs(t *testing.T) {
	net, dests := coldShapes[1].build()
	opts := DefaultOptions()
	opts.Seed = 1
	eng := New(opts)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := eng.Route(net, dests, coldVCs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Errorf("a warm Route makes %.0f allocations, want fewer than 1,000", allocs)
	}
	t.Logf("a warm Route makes %.0f allocations", allocs)
}

// TestRouteBytes: a warm Route of each cold shape allocates its table's
// entries and a fixed slack beside them: the table's destination index,
// the partition's parts and the result. The switch rows are the
// network's, the source mask is the engine's, and the escape trees and
// the escape marking's scratch are recycled, so nothing else sized by
// the network is made per route. Each slack is the measured overhead
// plus 25% (16³: 40 KB; 8³: 17.7 KB). A route's bytes are the
// least of five warm routes: the free lists keep as many states as were ever in use
// at once, so the first route that runs more layers side by side than
// any before it pays for the extra ones.
func TestRouteBytes(t *testing.T) {
	slack := map[string]int64{"torus512": 22 << 10, "torus4k-32": 50 << 10}
	for _, s := range coldShapes {
		net, dests := s.build()
		opts := DefaultOptions()
		opts.Seed = 1
		eng := New(opts)
		var res *routing.Result
		route := func() int64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if res, err = eng.Route(net, dests, coldVCs); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		for range 5 {
			route()
		}
		bytes := route()
		for range 4 {
			bytes = min(bytes, route())
		}
		rows, cols := res.Table.Shape()
		entries := int64(rows*cols) * int64(unsafe.Sizeof(graph.ChannelID(0)))
		if bytes > entries+slack[s.name] {
			t.Errorf("%s: a warm Route allocates %d B, %d B over its %d B of table entries; want at most %d B over",
				s.name, bytes, bytes-entries, entries, slack[s.name])
		}
		t.Logf("%s: a warm Route allocates %d B, %d B over its %d B of table entries", s.name, bytes, bytes-entries, entries)
	}
}
