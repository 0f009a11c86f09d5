// Command nuebench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	nuebench -exp fig9 -trials 50      # one experiment, at the paper's scale
//	nuebench -exp all                  # the paper's table and figures
//	nuebench -h                        # every experiment name and flag
//
// Default scales are laptop-sized; the flags restore the paper's full
// parameters (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

var (
	trials   = flag.Int("trials", 5, "fig9: number of random topologies (paper: 1000)")
	phases   = flag.Int("phases", 16, "fig10: all-to-all shift phases (0 = full, the paper's workload)")
	maxDim   = flag.Int("maxdim", 6, "fig11: largest torus dimension (paper: 10)")
	verify   = flag.Bool("verify", false, "fig11: verify deadlock freedom of every result (slow)")
	mcGroups = flag.Int("mcast-groups", 8, "mcast: number of seeded random multicast groups")
	mcSize   = flag.Int("mcast-size", 6, "mcast: members per multicast group")
	lgSample = flag.Int("large-sample", 512, "large: max sampled destinations per class (0 = every switch)")
	wlFlows  = flag.Int("wl-flows", 20_000, "workload: flows per (topology, workload) cell")
	wlGap    = flag.Float64("wl-gap", 4, "workload: Poisson mean inter-arrival gap in ticks (0 = closed batch)")
)

// common carries the flags that mean the same thing to every experiment.
type common struct {
	seed    int64
	workers int
	vcs     int                 // -vcs; 0 keeps the experiment's own budget
	reg     *telemetry.Registry // nil without -telemetry
}

// budget returns the -vcs override, or the experiment's default def.
func (c common) budget(def int) int {
	if c.vcs > 0 {
		return c.vcs
	}
	return def
}

// table lists every experiment: the -exp help, -exp all and the
// unknown-experiment error all read it, in this order.
var table = []struct {
	name  string
	inAll bool // part of -exp all: the paper's own table and figures
	run   func(w io.Writer, c common)
}{
	{"table1", true, func(w io.Writer, c common) { // topology configuration table
		experiments.WriteTable1(w, c.seed)
	}},
	{"fig1", true, func(w io.Writer, c common) { // faulty-torus throughput + VC demand
		cfg := experiments.DefaultFig1Config()
		cfg.Seed, cfg.Workers, cfg.Telemetry, cfg.MaxVCs = c.seed, c.workers, c.reg, c.budget(cfg.MaxVCs)
		experiments.WriteFig1(w, cfg)
	}},
	{"fig9", true, func(w io.Writer, c common) { // edge forwarding index box-plot data
		cfg := experiments.DefaultFig9Config()
		cfg.Seed, cfg.Workers, cfg.Trials = c.seed, c.workers, *trials
		experiments.WriteFig9(w, cfg)
	}},
	{"fig10", true, func(w io.Writer, c common) { // Table 1 topologies, all-to-all throughput
		cfg := experiments.DefaultFig10Config()
		cfg.Seed, cfg.Workers, cfg.MaxVCs, cfg.Phases = c.seed, c.workers, c.budget(cfg.MaxVCs), *phases
		experiments.WriteFig10(w, cfg)
	}},
	{"fig11", true, func(w io.Writer, c common) { // routing runtime scaling
		cfg := experiments.DefaultFig11Config()
		cfg.Seed, cfg.Workers, cfg.MaxVCs = c.seed, c.workers, c.budget(cfg.MaxVCs)
		cfg.MaxDim, cfg.Verify = *maxDim, *verify
		experiments.WriteFig11(w, cfg)
	}},
	{"ablation", false, func(w io.Writer, c common) { // engine feature ablation grid
		cfg := experiments.DefaultAblationConfig()
		cfg.Seed, cfg.VCs, cfg.Trials = c.seed, c.budget(cfg.VCs), *trials
		experiments.WriteAblation(w, cfg)
	}},
	{"mcast", false, func(w io.Writer, c common) { // cast-tree routing + replication sim
		cfg := experiments.DefaultMcastConfig()
		cfg.Seed, cfg.Workers, cfg.MaxVCs = c.seed, c.workers, c.budget(cfg.MaxVCs)
		cfg.Groups, cfg.GroupSize = *mcGroups, *mcSize
		experiments.WriteMcast(w, cfg)
	}},
	{"frontier", false, func(w io.Writer, c common) { // specialist low-VC engines vs Nue + existence verdicts
		cfg := experiments.DefaultFrontierConfig()
		cfg.Seed, cfg.Workers = c.seed, c.workers
		if err := experiments.WriteFrontier(w, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}},
	{"large", false, func(w io.Writer, c common) { // 4k-32k switch tier (flat-core regime)
		cfg := experiments.DefaultLargeConfig()
		cfg.Seed, cfg.Workers, cfg.MaxVCs, cfg.DestSample = c.seed, c.workers, c.budget(cfg.MaxVCs), *lgSample
		experiments.WriteLarge(w, cfg)
	}},
	{"workload", false, func(w io.Writer, c common) { // trace-driven workloads on the fluid fast path
		cfg := experiments.DefaultWorkloadConfig()
		cfg.Seed, cfg.Workers, cfg.Telemetry, cfg.MaxVCs = c.seed, c.workers, c.reg, c.budget(cfg.MaxVCs)
		cfg.Flows, cfg.MeanGap = *wlFlows, *wlGap
		experiments.WriteWorkload(w, cfg)
	}},
}

// names returns the experiment names in table order.
func names() string {
	var b strings.Builder
	for _, e := range table {
		b.WriteString(e.name + ", ")
	}
	return b.String() + "all"
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+names())
		maxVCs  = flag.Int("vcs", 0, "override VC budget (0 = per-experiment default)")
		seed    = flag.Int64("seed", 1, "random seed for topologies and partitioning")
		workers = flag.Int("workers", 0, "Nue routing goroutines, 0 = GOMAXPROCS (routes are identical for every value)")
		telem   = flag.Bool("telemetry", false, "instrument the runs (fig1, workload) and append a JSON metrics dump")
		out     = flag.String("o", "", "write output to file instead of stdout")
	)
	flag.Parse()

	c := common{seed: *seed, workers: *workers, vcs: *maxVCs}
	if *telem {
		c.reg = telemetry.New()
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	ran := false
	for _, e := range table {
		if e.name == *exp || (*exp == "all" && e.inAll) {
			e.run(w, c)
			fmt.Fprintln(w)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *exp, names())
		os.Exit(2)
	}

	if c.reg != nil {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
