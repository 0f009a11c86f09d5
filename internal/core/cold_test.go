package core

import (
	"testing"

	"repro/internal/graph"
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
