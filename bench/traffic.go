package main

import (
	"fmt"
	"maps"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flowsim"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

const flowBytes = 4096

// patterns are the traffic patterns of one op, in run order.
var patterns = []struct {
	name    string
	pattern workload.Pattern
}{
	{"uniform", workload.Uniform{}},
	{"hotspot", workload.Hotspot{Skew: 1.2}},
	{"incast", workload.Incast{}},
}

// outcome is what a fluid run must repeat exactly on the same inputs.
type outcome struct {
	events, recomputes int64
	makespan           float64
}

// traffic is the traffic-* instance: one torus, and per op fresh tables
// from Nue and a fresh closed batch of flows per pattern, both drawn from
// the run's seed and the op's index. An op simulates every pattern once.
// A run times a fresh draw per op because how long a simulation takes
// depends on the draw — where the hotspot victims fall moves the hotspot
// pattern by a third, the engine's seed moves all three by a twentieth —
// and a run's median should be the workload's, not one draw's.
type traffic struct {
	net  *graph.Network
	size sizing
	seed int64
	tr   *tracer
	tm   *telemetry.WorkloadMetrics

	res   *routing.Result   // what the next op simulates
	flows [][]workload.Flow // per pattern

	last []outcome // per pattern, of the op made last
	sum  []outcome // per pattern, summed over every op so far
	own  map[string]float64
}

func setupTraffic(c *runConfig, reg *telemetry.Registry, tr *tracer) (instance, error) {
	s := tr.begin("topology.build", kindDirect, -1)
	tp := topology.Torus3D(c.size.torus[0], c.size.torus[1], c.size.torus[2], 1, 1)
	tr.end(s)

	in := &traffic{
		net: tp.Net, size: c.size, seed: c.seed, tr: tr, tm: reg.Workload(),
		sum: make([]outcome, len(patterns)), own: make(map[string]float64),
	}
	err := in.draw(-1)
	if err == nil {
		_, err = in.op(false)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// draw routes the torus with a drawn engine seed and generates each
// pattern's flows from a drawn generator seed.
func (in *traffic) draw(i int) error {
	rng := opRand(in.seed, i)
	opts := core.DefaultOptions()
	opts.Seed = 1 + rng.Int63n(engineSeeds)
	var err error
	if in.res, err = core.New(opts).Route(in.net, in.net.Terminals(), vcs); err != nil {
		return fmt.Errorf("core.Route: %w", err)
	}
	s := in.tr.begin("workload.generate", kindDirect, -1)
	in.flows = in.flows[:0]
	for _, p := range patterns {
		in.flows = append(in.flows, workload.Generate(in.net.Terminals(), workload.Single(p.pattern, flowBytes),
			in.size.flows, workload.Closed{}, rng.Int63()))
	}
	in.tr.end(s)
	return nil
}

func (in *traffic) config(workers int, tm *telemetry.WorkloadMetrics) flowsim.Config {
	return flowsim.Config{Workers: workers, Quantum: 1 << 18, Telemetry: tm}
}

func (in *traffic) op(replay bool) (time.Duration, error) {
	root := in.tr.begin("op", kindDirect, -1)
	start := time.Now()
	got := make([]outcome, len(patterns))
	for p, pat := range patterns {
		s := in.tr.begin("flowsim.run_"+pat.name, kindDirect, root)
		runStart := time.Now()
		r, err := flowsim.Run(in.net, in.res, in.flows[p], in.config(0, in.tm))
		in.own["flowsim.run_ns"] += float64(time.Since(runStart).Nanoseconds())
		in.tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("flowsim.Run(%s): %w", pat.name, err)
		}
		if r.TimedOut || r.FlowsFinished != r.FlowsTotal-r.FlowsSkipped {
			return 0, fmt.Errorf("flowsim.Run(%s): %d of %d flows finished", pat.name, r.FlowsFinished, r.FlowsTotal-r.FlowsSkipped)
		}
		got[p] = outcome{r.Events, r.Recomputes, r.Makespan}
		in.own["flowsim.events"] += float64(r.Events)
		in.own["flowsim.recomputes"] += float64(r.Recomputes)
	}
	lat := time.Since(start)
	in.tr.end(root)

	in.last = got
	for p, o := range got {
		in.sum[p].events += o.events
		in.sum[p].recomputes += o.recomputes
		in.sum[p].makespan += o.makespan
	}
	if replay {
		return lat, in.replay()
	}
	return lat, nil
}

// replay walks every flow's path the way a run's first pass does, and
// repeats the runs with one worker.
func (in *traffic) replay() error {
	s := in.tr.begin("flowsim.walk", kindReplay, -1)
	var buf []graph.ChannelID
	for _, flows := range in.flows {
		for _, f := range flows {
			var err error
			if buf, err = flowsim.WalkFlowPath(in.net, in.res, f.Src, f.Dst, buf); err != nil {
				return err
			}
		}
	}
	in.tr.end(s)

	s = in.tr.begin("flowsim.run_w1", kindReplay, -1)
	defer in.tr.end(s)
	for p, pat := range patterns {
		r, err := flowsim.Run(in.net, in.res, in.flows[p], in.config(1, nil))
		if err != nil {
			return fmt.Errorf("flowsim.Run(%s) with one worker: %w", pat.name, err)
		}
		if got := (outcome{r.Events, r.Recomputes, r.Makespan}); got != in.last[p] {
			return fmt.Errorf("%s: one worker gave %+v, all workers %+v", pat.name, got, in.last[p])
		}
	}
	return nil
}

func (in *traffic) counts() map[string]float64 { return maps.Clone(in.own) }

// checkpoint lists (events, recomputes, makespan) of every pattern,
// summed in op order over every op so far.
func (in *traffic) checkpoint() string {
	parts := make([]string, len(in.sum))
	for p, o := range in.sum {
		parts[p] = fmt.Sprintf("%s=%d/%d/%v", patterns[p].name, o.events, o.recomputes, o.makespan)
	}
	return strings.Join(parts, ",")
}

func (in *traffic) finish() error { return nil }
func (in *traffic) close()        {}
