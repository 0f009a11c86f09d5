// Command nuebench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	nuebench -exp fig1                 # faulty-torus throughput + VC demand
//	nuebench -exp fig9 -trials 50      # edge forwarding index box-plot data
//	nuebench -exp fig10 -phases 0      # Table 1 topologies, full all-to-all
//	nuebench -exp fig11 -maxdim 10     # routing runtime scaling
//	nuebench -exp table1               # topology configuration table
//	nuebench -exp ablation             # engine feature ablation grid
//	nuebench -exp mcast -mcast-groups 8 -mcast-size 6  # cast-tree routing + replication sim
//	nuebench -exp frontier             # specialist low-VC engines vs Nue + existence verdicts
//	nuebench -exp large -large-sample 512  # 4k-32k switch tier (flat-core regime)
//	nuebench -exp workload -wl-flows 20000 # trace-driven workloads on the fluid fast path
//	nuebench -exp all                  # everything, default scales
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

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig1, fig9, fig10, fig11, table1, ablation, mcast, frontier, large, workload, all")
		trials   = flag.Int("trials", 5, "fig9: number of random topologies (paper: 1000)")
		phases   = flag.Int("phases", 16, "fig10: all-to-all shift phases (0 = full, the paper's workload)")
		maxDim   = flag.Int("maxdim", 6, "fig11: largest torus dimension (paper: 10)")
		maxVCs   = flag.Int("vcs", 0, "override VC budget (0 = per-experiment default)")
		seed     = flag.Int64("seed", 1, "random seed for topologies and partitioning")
		workers  = flag.Int("workers", 0, "Nue routing goroutines, 0 = GOMAXPROCS (routes are identical for every value)")
		verify   = flag.Bool("verify", false, "fig11: verify deadlock freedom of every result (slow)")
		mcGroups = flag.Int("mcast-groups", 8, "mcast: number of seeded random multicast groups")
		mcSize   = flag.Int("mcast-size", 6, "mcast: members per multicast group")
		lgSample = flag.Int("large-sample", 512, "large: max sampled destinations per class (0 = every switch)")
		wlFlows  = flag.Int("wl-flows", 20_000, "workload: flows per (topology, workload) cell")
		wlGap    = flag.Float64("wl-gap", 4, "workload: Poisson mean inter-arrival gap in ticks (0 = closed batch)")
		telem    = flag.Bool("telemetry", false, "instrument the runs (currently fig1) and append a JSON metrics dump")
		out      = flag.String("o", "", "write output to file instead of stdout")
	)
	flag.Parse()

	var reg *telemetry.Registry
	if *telem {
		reg = telemetry.New()
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

	run := func(name string) {
		switch name {
		case "table1":
			experiments.WriteTable1(w, *seed)
		case "fig1":
			cfg := experiments.DefaultFig1Config()
			cfg.Seed = *seed
			cfg.Workers = *workers
			cfg.Telemetry = reg
			if *maxVCs > 0 {
				cfg.MaxVCs = *maxVCs
			}
			experiments.WriteFig1(w, cfg)
		case "fig9":
			cfg := experiments.DefaultFig9Config()
			cfg.Trials = *trials
			cfg.Seed = *seed
			cfg.Workers = *workers
			experiments.WriteFig9(w, cfg)
		case "fig10":
			cfg := experiments.DefaultFig10Config()
			cfg.Phases = *phases
			cfg.Seed = *seed
			cfg.Workers = *workers
			if *maxVCs > 0 {
				cfg.MaxVCs = *maxVCs
			}
			experiments.WriteFig10(w, cfg)
		case "ablation":
			cfg := experiments.DefaultAblationConfig()
			cfg.Seed = *seed
			cfg.Trials = *trials
			if *maxVCs > 0 {
				cfg.VCs = *maxVCs
			}
			experiments.WriteAblation(w, cfg)
		case "mcast":
			cfg := experiments.DefaultMcastConfig()
			cfg.Groups = *mcGroups
			cfg.GroupSize = *mcSize
			cfg.Seed = *seed
			cfg.Workers = *workers
			if *maxVCs > 0 {
				cfg.MaxVCs = *maxVCs
			}
			experiments.WriteMcast(w, cfg)
		case "frontier":
			cfg := experiments.DefaultFrontierConfig()
			cfg.Seed = *seed
			cfg.Workers = *workers
			if err := experiments.WriteFrontier(w, cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		case "large":
			cfg := experiments.DefaultLargeConfig()
			cfg.DestSample = *lgSample
			cfg.Seed = *seed
			cfg.Workers = *workers
			if *maxVCs > 0 {
				cfg.MaxVCs = *maxVCs
			}
			experiments.WriteLarge(w, cfg)
		case "workload":
			cfg := experiments.DefaultWorkloadConfig()
			cfg.Flows = *wlFlows
			cfg.MeanGap = *wlGap
			cfg.Seed = *seed
			cfg.Workers = *workers
			cfg.Telemetry = reg
			if *maxVCs > 0 {
				cfg.MaxVCs = *maxVCs
			}
			experiments.WriteWorkload(w, cfg)
		case "fig11":
			cfg := experiments.DefaultFig11Config()
			cfg.MaxDim = *maxDim
			cfg.Seed = *seed
			cfg.Workers = *workers
			cfg.Verify = *verify
			if *maxVCs > 0 {
				cfg.MaxVCs = *maxVCs
			}
			experiments.WriteFig11(w, cfg)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Fprintln(w)
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "fig1", "fig9", "fig10", "fig11"} {
			run(name)
		}
	} else {
		run(*exp)
	}

	if reg != nil {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
