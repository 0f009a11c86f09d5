package main

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"time"

	"repro/internal/cdg"
	"repro/internal/centrality"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// cold is a cold-* instance: one fabric, routed from scratch by every op.
// What an op routes is drawn from the run's seed and the op's index: the
// engine's seed, and on a sampled fabric which terminals are destinations.
// How long a route takes depends on that draw (by a sixth either way on
// cold-torus4k), so a run times a fresh draw per op and its median is that
// of the workload, not of one draw.
type cold struct {
	net    *graph.Network
	terms  []graph.NodeID // every terminal
	sample int            // destinations per op; 0: every terminal
	seed   int64
	tr     *tracer
	reg    *telemetry.Registry

	dests []graph.NodeID // what the next op routes
	opts  core.Options

	chain uint64             // the table digests of all ops so far, folded in op order
	own   map[string]float64 // the benchmark's own cumulative counts
}

// setupCold builds a dims torus and routes it once to warm pools and
// caches. sample > 0 makes every op route that many destinations, picked
// by a stride walk over the terminals from a drawn offset.
func setupCold(c *runConfig, reg *telemetry.Registry, tr *tracer, dims [3]int, sample int) (instance, error) {
	s := tr.begin("topology.build", kindDirect, -1)
	tp := topology.Torus3D(dims[0], dims[1], dims[2], 1, 1)
	tr.end(s)

	in := &cold{net: tp.Net, terms: tp.Net.Terminals(), sample: sample, seed: c.seed, tr: tr, reg: reg, own: make(map[string]float64)}
	if in.sample >= len(in.terms) {
		in.sample = 0
	}
	in.draw(-1)
	if _, err := in.op(false); err != nil {
		return nil, err
	}
	return in, nil
}

// sampleOffsets is how many stride-walk offsets a sampled fabric draws
// from, evenly spaced over the stride: few enough that every pair of
// engine seed and offset could be vetted (see engineSeeds).
const sampleOffsets = 8

// draw picks op i's destinations and engine options.
func (in *cold) draw(i int) error {
	rng := opRand(in.seed, i)
	in.opts = core.DefaultOptions()
	in.opts.Seed = 1 + rng.Int63n(engineSeeds)
	in.opts.Telemetry = in.reg.Engine()
	in.dests = in.terms
	if in.sample > 0 {
		stride := len(in.terms) / in.sample
		first := rng.Intn(min(sampleOffsets, stride)) * max(stride/sampleOffsets, 1)
		in.dests = make([]graph.NodeID, in.sample)
		for k := range in.dests {
			in.dests[k] = in.terms[first+k*stride]
		}
	}
	return nil
}

// routeCertified is the cold pipeline: topology in, certified tables and
// compiled LFTs out. Each stage is a direct span under parent.
func (in *cold) routeCertified(parent int, dests []graph.NodeID, opts core.Options) (*routing.Result, error) {
	tr, net, own := in.tr, in.net, in.own
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	s := tr.begin("core.route", kindDirect, parent)
	res, err := core.New(opts).Route(net, dests, vcs)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("core.Route: %w", err)
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		own["core.route_mallocs"] += float64(m1.Mallocs - m0.Mallocs)
		own["core.routes"]++
	}

	s = tr.begin("verify.check", kindDirect, parent)
	_, err = verify.Check(net, res, nil)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("verify.Check: %w", err)
	}

	s = tr.begin("oracle.certify", kindDirect, parent)
	cert, err := oracle.Certify(net, res, oracle.Options{MaxVCs: vcs})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("oracle.Certify: %w", err)
	}
	own["oracle.deps"] += float64(cert.Deps)
	own["oracle.pairs"] += float64(cert.Pairs)

	s = tr.begin("distrib.compile", kindDirect, parent)
	lfts := distrib.Compile(distrib.Epoch{Net: net, Result: res})
	tr.end(s)
	if rows, cols := res.Table.Shape(); lfts.Rows != rows || lfts.Cols != cols || len(lfts.LFTs) != rows {
		return nil, fmt.Errorf("distrib.Compile: %dx%d LFTs for a %dx%d table", lfts.Rows, lfts.Cols, rows, cols)
	}
	return res, nil
}

func (in *cold) op(replay bool) (time.Duration, error) {
	dests, opts := in.dests, in.opts
	root := in.tr.begin("op", kindDirect, -1)
	start := time.Now()
	res, err := in.routeCertified(root, dests, opts)
	lat := time.Since(start)
	in.tr.end(root)
	if err != nil {
		return lat, err
	}
	digest := res.Table.Digest()
	in.chain = (in.chain ^ digest) * 1099511628211
	if replay {
		return lat, in.replay(res, dests, opts, digest)
	}
	return lat, nil
}

// replay repeats the engine's own phases on the op's inputs, one worker
// where the op used them all, with no registry attached so the traced
// counts stay the op's.
func (in *cold) replay(res *routing.Result, dests []graph.NodeID, opts core.Options, digest uint64) error {
	opts.Workers, opts.Telemetry = 1, nil
	s := in.tr.begin("core.route_w1", kindReplay, -1)
	again, err := core.New(opts).Route(in.net, dests, vcs)
	in.tr.end(s)
	if err != nil {
		return fmt.Errorf("core.Route with one worker: %w", err)
	}
	if again.Table.Digest() != digest {
		return errors.New("core.Route with one worker gave other tables")
	}

	hull := centrality.ConvexSubgraph(in.net, dests)
	s = in.tr.begin("centrality.betweenness_w1", kindReplay, -1)
	centrality.BetweennessN(in.net, hull, 1)
	in.tr.end(s)

	s = in.tr.begin("cdg.new_complete", kindReplay, -1)
	for l := 0; l < max(res.VCs, 1); l++ {
		cdg.NewComplete(in.net).Release()
	}
	in.tr.end(s)
	return nil
}

func (in *cold) counts() map[string]float64 {
	out := engineCounts(in.reg)
	maps.Copy(out, in.own)
	return out
}

// engineCounts reads the engine_* counters the per-layer table names.
func engineCounts(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for key, name := range map[string]string{
		"centrality.betweenness_ns": "engine_betweenness_nanos_total",
		"partition.split_ns":        "engine_partition_nanos_total",
		"core.dijkstra_ns":          "engine_dijkstra_nanos_total",
		"core.dijkstra_runs":        "engine_dijkstra_runs_total",
		"core.blocked_encounters":   "engine_blocked_encounters_total",
		"core.escape_fallbacks":     "engine_escape_fallbacks_total",
		"cdg.cycle_searches":        "engine_cycle_searches_total",
		"cdg.edges_blocked":         "engine_edges_blocked_total",
	} {
		out[key] = float64(reg.Counter(name).Load())
	}
	return out
}

// checkpoint folds the table digest of every op so far.
func (in *cold) checkpoint() string { return fmt.Sprintf("%016x", in.chain) }
func (in *cold) finish() error      { return nil }
func (in *cold) close()             {}
