// Command nueload drives a topology/engine pair with a trace-driven
// workload through the flow-level fluid simulator (internal/flowsim):
// the evaluation path for flow counts the flit-level simulator cannot
// reach (millions of concurrent flows), cross-validated against it on
// small cases.
//
// Usage:
//
//	nueload -topo torus -dims 4x4x4 -pattern hotspot -skew 1.2 -flows 100000
//	nueload -topo ring -pattern mix -flows 50000            # weighted bulk+rpc tenants
//	nueload -pattern incast -fanin 16 -record trace.bin     # generate + record
//	nueload -replay trace.bin -engine dor                   # bit-identical rerun
//	nueload -topo torus -dims 16x16x16 -terminals 1 -engine torus2qos \
//	        -pattern shift -flows 1000000 -quantum 65536    # the 1M-flow regime
//
// Reports per-tenant throughput and flow-completion-time percentiles
// plus link-utilization heatmap data (-heatmap writes the full
// per-channel CSV). -record/-replay use the compact binary trace
// format, so a generated workload or an external trace reruns
// bit-identically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/engines"
	"repro/internal/flowsim"
	"repro/internal/graph"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	var (
		topo      = flag.String("topo", "torus", "topology: "+strings.Join(topology.Names(), ", "))
		dims      = flag.String("dims", "4x4x4", "torus/mesh dimensions")
		terminals = flag.Int("terminals", 2, "terminals per switch")
		engine    = flag.String("engine", "nue", "routing engine: "+strings.Join(engines.Names(), ", "))
		vcs       = flag.Int("vcs", 4, "virtual channel budget")
		seed      = flag.Int64("seed", 1, "seed for topology, routing and workload generation")
		workers   = flag.Int("workers", 0, "routing engine workers, 0 = GOMAXPROCS (results identical for every value)")

		pattern = flag.String("pattern", "uniform", "workload: uniform, hotspot, incast, permutation, shift, mix")
		skew    = flag.Float64("skew", 1.2, "hotspot: Zipf exponent")
		fanin   = flag.Int("fanin", 8, "incast: senders per victim")
		offset  = flag.Int("offset", 0, "shift: fixed offset (0 = terminals/2)")
		nflows  = flag.Int("flows", 100_000, "number of flows to generate")
		bytes   = flag.Int64("bytes", 64<<10, "bytes per flow")
		meanGap = flag.Float64("mean-gap", 4, "Poisson mean inter-arrival gap in ticks (0 = closed batch)")

		quantum  = flag.Int64("quantum", 1<<16, "rate-recompute coalescing window in ticks (0 = exact event-by-event)")
		maxTicks = flag.Float64("max-ticks", 0, "abort the fluid run after this many ticks (0 = none)")

		record  = flag.String("record", "", "write the generated workload to this binary trace file")
		replay  = flag.String("replay", "", "replay a binary trace instead of generating (skips -pattern/-flows)")
		heatmap = flag.String("heatmap", "", "write the full per-channel utilization CSV to this file")
		topN    = flag.Int("top-links", 10, "hottest links to print")
		telem   = flag.Bool("telemetry", false, "append a JSON dump of the workload_* metrics")
		out     = flag.String("o", "", "write output to file instead of stdout")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	tp, err := topology.ByName(*topo, topology.Params{Dims: *dims, Terminals: terminals, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	eng, err := engines.ByName(*engine, tp, *seed, *workers)
	if err != nil {
		fatal(err)
	}

	var reg *telemetry.Registry
	if *telem {
		reg = telemetry.New()
	}
	wm := reg.Workload()

	// Workload: replay a trace bit-identically, or generate (and
	// optionally record) one.
	var flows []workload.Flow
	var tenantNames []string
	switch {
	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		flows, err = workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if st, err := os.Stat(*replay); err == nil && wm != nil {
			wm.TraceBytesRead.Add(st.Size())
		}
		fmt.Fprintf(w, "replayed %d flows from %s\n", len(flows), *replay)
	default:
		mix, err := makeMix(*pattern, *skew, *fanin, *offset, *bytes)
		if err != nil {
			fatal(err)
		}
		tenantNames = mix.TenantNames()
		var arrival workload.Arrival = workload.Closed{}
		if *meanGap > 0 {
			arrival = workload.Poisson{MeanGap: *meanGap}
		}
		flows = workload.Generate(tp.Net.Terminals(), mix, *nflows, arrival, *seed)
		if wm != nil {
			wm.FlowsGenerated.Add(int64(len(flows)))
		}
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fatal(err)
			}
			if err := workload.WriteTrace(f, flows); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			if st, err := os.Stat(*record); err == nil && wm != nil {
				wm.TraceBytesWritten.Add(st.Size())
			}
			fmt.Fprintf(w, "recorded %d flows to %s\n", len(flows), *record)
		}
	}

	fmt.Fprintf(w, "routing %s with %s (vcs=%d)...\n", tp.Name, *engine, *vcs)
	routeStart := time.Now()
	res, err := eng.Route(tp.Net, tp.Net.Terminals(), *vcs)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "routed in %s\n", time.Since(routeStart).Round(time.Millisecond))

	simStart := time.Now()
	r, err := flowsim.Run(tp.Net, res, flows, flowsim.Config{
		Quantum:     *quantum,
		MaxTicks:    *maxTicks,
		TenantNames: tenantNames,
		Telemetry:   wm,
	})
	if err != nil {
		fatal(err)
	}
	wall := time.Since(simStart)

	report(w, tp.Net, r, wall, *topN)
	if *heatmap != "" {
		if err := writeHeatmap(*heatmap, tp.Net, r); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "heatmap: wrote %d channels to %s\n", tp.Net.NumChannels(), *heatmap)
	}
	if reg != nil {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.Snapshot()); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func makeMix(pattern string, skew float64, fanin, offset int, bytes int64) (workload.Mix, error) {
	switch pattern {
	case "uniform":
		return workload.Single(workload.Uniform{}, bytes), nil
	case "hotspot":
		return workload.Single(workload.Hotspot{Skew: skew}, bytes), nil
	case "incast":
		return workload.Single(workload.Incast{Fanin: fanin}, bytes), nil
	case "permutation":
		return workload.Single(workload.Permutation{}, bytes), nil
	case "shift":
		return workload.Single(workload.Shift{Offset: offset}, bytes), nil
	case "mix":
		return workload.Mix{Tenants: []workload.TenantSpec{
			{Name: "bulk", Weight: 3, Pattern: workload.Uniform{}, Bytes: bytes},
			{Name: "rpc", Weight: 1, Pattern: workload.Incast{Fanin: fanin}, Bytes: 4096},
		}}, nil
	default:
		return workload.Mix{}, fmt.Errorf("unknown pattern %q", pattern)
	}
}

func report(w io.Writer, net *graph.Network, r flowsim.Result, wall time.Duration, topN int) {
	fmt.Fprintf(w, "\nflows: %d total, %d finished, %d unfinished, %d skipped\n",
		r.FlowsTotal, r.FlowsFinished, r.FlowsUnfinished, r.FlowsSkipped)
	fmt.Fprintf(w, "fluid time: %.0f ticks (%d events, %d rate recomputes)", r.Makespan, r.Events, r.Recomputes)
	if r.TimedOut {
		fmt.Fprint(w, " [cut by -max-ticks]")
	}
	fmt.Fprintln(w)
	eventsPerSec := float64(r.Events) / wall.Seconds()
	fmt.Fprintf(w, "wall time: %s (%.0f events/sec)\n", wall.Round(time.Millisecond), eventsPerSec)
	fmt.Fprintf(w, "aggregate throughput: %.3f bytes/tick (%d bytes delivered)\n", r.AggThroughput, r.DeliveredBytes)
	fmt.Fprintf(w, "link utilization (switch-switch, loaded): avg %.3f, max %.3f\n",
		r.AvgLinkUtilization, r.MaxLinkUtilization)

	fmt.Fprintln(w, "\nper-tenant:")
	fmt.Fprintln(w, "  tenant          flows  finished  throughput(B/tick)  fct avg/p50/p99/max (ticks)")
	for _, ts := range r.PerTenant {
		if ts.Flows == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %6d  %8d  %18.3f  %.0f/%.0f/%.0f/%.0f\n",
			ts.Name, ts.Flows, ts.Finished, ts.Throughput,
			ts.FCTAvg, ts.FCTP50, ts.FCTP99, ts.FCTMax)
	}

	type hot struct {
		c    int
		util float64
	}
	var hots []hot
	for c, u := range r.LinkUtil {
		if u > 0 {
			hots = append(hots, hot{c, u})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].util != hots[j].util {
			return hots[i].util > hots[j].util
		}
		return hots[i].c < hots[j].c
	})
	if topN > len(hots) {
		topN = len(hots)
	}
	fmt.Fprintf(w, "\nhottest %d links:\n", topN)
	for _, h := range hots[:topN] {
		ch := net.Channel(graph.ChannelID(h.c))
		fmt.Fprintf(w, "  ch%-6d %4d -> %-4d util %.3f (%.0f bytes)\n",
			h.c, ch.From, ch.To, h.util, r.LinkBytes[h.c])
	}
}

// writeHeatmap dumps the full per-channel utilization profile as CSV:
// channel id, endpoints, link class, carried bytes, utilization.
func writeHeatmap(path string, net *graph.Network, r flowsim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "channel,from,to,class,bytes,utilization"); err != nil {
		return err
	}
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(graph.ChannelID(c))
		class := "sw-sw"
		switch {
		case net.IsTerminal(ch.From):
			class = "inject"
		case net.IsTerminal(ch.To):
			class = "eject"
		}
		if _, err := fmt.Fprintf(f, "%d,%d,%d,%s,%.0f,%.6f\n",
			c, ch.From, ch.To, class, r.LinkBytes[c], r.LinkUtil[c]); err != nil {
			return err
		}
	}
	return nil
}
