package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/engines"
	"repro/internal/graph"
	"repro/internal/topology"
)

// LargeClass is one topology class of the large-scale tier: a name and a
// lazy constructor (the 32k-switch networks are expensive to build, so
// classes materialize only when routed).
type LargeClass struct {
	Name  string
	Build func() *topology.Topology
}

// LargeClasses returns the PR 8 large-scale tier: the three paper
// families scaled to 4,096-32,768 switches, the regime the flat routing
// core (CSR adjacency + dial queue + CDG arenas) exists for.
func LargeClasses() []LargeClass {
	return []LargeClass{
		{Name: "torus-16x16x16", Build: func() *topology.Topology {
			return topology.Torus3D(16, 16, 16, 1, 1) // 4,096 switches
		}},
		{Name: "dragonfly-a16g256", Build: func() *topology.Topology {
			return topology.Dragonfly(16, 1, 16, 256) // 4,096 switches
		}},
		{Name: "ftree-16ary4", Build: func() *topology.Topology {
			return topology.KAryNTree(16, 4, 1) // 16,384 switches
		}},
		{Name: "torus-32x32x32", Build: func() *topology.Topology {
			return topology.Torus3D(32, 32, 32, 1, 1) // 32,768 switches
		}},
	}
}

// LargeConfig parameterizes the large-scale routing sweep.
type LargeConfig struct {
	// Classes defaults to LargeClasses when nil.
	Classes []LargeClass
	// MaxVCs is the virtual-channel budget (default 4, the Fig. 1
	// budget; large networks routinely need 3-4 layers).
	MaxVCs int
	// DestSample bounds the routed destination count: 0 routes every
	// switch, n > 0 routes a deterministic stride sample of at most n
	// switches. The biggest classes are only tractable sampled.
	DestSample int
	// Seed drives partitioning; Workers bounds the layer pool
	// (0 = GOMAXPROCS). Neither changes the routes.
	Seed    int64
	Workers int
}

// DefaultLargeConfig samples 512 destinations per class so the whole
// tier finishes in minutes on one core; DestSample = 0 restores the
// full-fabric sweep.
func DefaultLargeConfig() LargeConfig {
	return LargeConfig{MaxVCs: 4, DestSample: 512, Seed: 1}
}

// LargeRow is one routed class of the tier.
type LargeRow struct {
	Class     string
	Switches  int
	Channels  int
	Dests     int
	VCs       int
	Runtime   time.Duration
	HeapDelta int64 // heap growth across the route, bytes
	// CycleSearches and BlockedEdges echo the engine stats: the two
	// CDG counters the flat core's level-ordered cycle search targets.
	CycleSearches int
	BlockedEdges  int
	Err           string
}

// SampleSwitches returns a deterministic stride sample of at most n
// switches (all of them when n <= 0 or n >= the switch count). The
// sample is a pure function of the network, so the experiment and the
// certification tests route the same destination set.
func SampleSwitches(net *graph.Network, n int) []graph.NodeID {
	sw := net.Switches()
	if n <= 0 || n >= len(sw) {
		return sw
	}
	out := make([]graph.NodeID, 0, n)
	stride := len(sw) / n
	for i := 0; i < len(sw) && len(out) < n; i += stride {
		out = append(out, sw[i])
	}
	return out
}

// Large routes every class of the tier with Nue and reports runtime,
// memory and CDG-search statistics per class.
func Large(cfg LargeConfig) []LargeRow { return large(cfg, nil) }

func large(cfg LargeConfig, onRow func(LargeRow)) []LargeRow {
	classes := cfg.Classes
	if classes == nil {
		classes = LargeClasses()
	}
	if cfg.MaxVCs <= 0 {
		cfg.MaxVCs = 4
	}
	var rows []LargeRow
	for _, cl := range classes {
		tp := cl.Build()
		dests := SampleSwitches(tp.Net, cfg.DestSample)
		row := LargeRow{
			Class:    cl.Name,
			Switches: tp.Net.NumSwitches(),
			Channels: tp.Net.NumChannels(),
			Dests:    len(dests),
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := engines.Nue(cfg.Seed, cfg.Workers).Route(tp.Net, dests, cfg.MaxVCs)
		row.Runtime = time.Since(start)
		runtime.ReadMemStats(&after)
		row.HeapDelta = int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if err != nil {
			row.Err = err.Error()
		} else {
			row.VCs = res.VCs
			row.CycleSearches = int(res.Stats["cycle_searches"])
			row.BlockedEdges = int(res.Stats["blocked_edges"])
		}
		rows = append(rows, row)
		if onRow != nil {
			onRow(row)
		}
	}
	return rows
}

// WriteLarge runs the tier, streaming each row as it completes (the
// 32k-switch classes take a while; partial output beats silence).
func WriteLarge(w io.Writer, cfg LargeConfig) []LargeRow {
	sample := "all switches"
	if cfg.DestSample > 0 {
		sample = fmt.Sprintf("<=%d sampled switches", cfg.DestSample)
	}
	fmt.Fprintf(w, "## Large-scale tier — Nue on 4k-32k switches (%d VC budget, dests: %s)\n",
		cfg.MaxVCs, sample)
	fmt.Fprintln(w, "class\tswitches\tchannels\tdests\tVCs\truntime\theap-delta\tcycle-searches\tblocked\tnote")
	rows := large(cfg, func(r LargeRow) {
		note := r.Err
		if note == "" {
			note = "ok"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\t%.1fMB\t%d\t%d\t%s\n",
			r.Class, r.Switches, r.Channels, r.Dests, r.VCs,
			r.Runtime.Round(time.Millisecond), float64(r.HeapDelta)/(1<<20),
			r.CycleSearches, r.BlockedEdges, note)
		if f, ok := w.(interface{ Sync() error }); ok {
			f.Sync()
		}
	})
	return rows
}
