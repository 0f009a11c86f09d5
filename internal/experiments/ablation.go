package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/topology"
)

// AblationConfig parameterizes the design-choice ablation (DESIGN.md §7).
type AblationConfig struct {
	// Trials averages over several random topologies.
	Trials int
	// Switches/SSLinks/TerminalsPerSwitch describe them (fig9-style).
	Switches, SSLinks, TerminalsPerSwitch int
	// VCs is the layer count for every variant.
	VCs  int
	Seed int64
}

// DefaultAblationConfig uses a mid-size random topology where impasses
// occur.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Trials: 3, Switches: 100, SSLinks: 800, TerminalsPerSwitch: 4, VCs: 2}
}

// AblationRow reports one Nue variant, averaged over trials.
type AblationRow struct {
	Variant   string
	Runtime   time.Duration
	Fallbacks float64
	Islands   float64
	GammaMax  float64
	Searches  float64
}

// Ablation measures the §4.3/§4.5/§4.6 design choices: betweenness-central
// vs random escape roots, multilevel k-way vs random partitioning,
// backtracking+shortcuts on vs off, and ω-numbered vs naive cycle search.
func Ablation(cfg AblationConfig) []AblationRow {
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"default", func(o *core.Options) {}},
		{"random-root", func(o *core.Options) { o.CentralRoot = false }},
		{"random-partition", func(o *core.Options) { o.Partition = partition.Random }},
		{"no-backtracking", func(o *core.Options) { o.Backtracking = false }},
		{"naive-cycle-search", func(o *core.Options) { o.NaiveCycleSearch = true }},
	}
	rows := make([]AblationRow, len(variants))
	for i := range rows {
		rows[i].Variant = variants[i].name
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		tp := topology.RandomTopology(rngFor(cfg.Seed, trial), cfg.Switches, cfg.SSLinks, cfg.TerminalsPerSwitch)
		dests := tp.Net.Terminals()
		for i, v := range variants {
			opts := core.DefaultOptions()
			opts.Seed = cfg.Seed + int64(trial)
			opts.Workers = 1 // measure single-threaded algorithmic cost
			v.mutate(&opts)
			start := time.Now()
			res, err := core.New(opts).Route(tp.Net, dests, cfg.VCs)
			rows[i].Runtime += time.Since(start)
			if err != nil {
				continue
			}
			g := metrics.EdgeForwardingIndex(tp.Net, res, nil)
			rows[i].Fallbacks += res.Stats["escape_fallbacks"]
			rows[i].Islands += res.Stats["islands_resolved"]
			rows[i].GammaMax += float64(g.Max)
			rows[i].Searches += res.Stats["cycle_searches"]
		}
	}
	for i := range rows {
		n := float64(cfg.Trials)
		rows[i].Runtime /= time.Duration(cfg.Trials)
		rows[i].Fallbacks /= n
		rows[i].Islands /= n
		rows[i].GammaMax /= n
		rows[i].Searches /= n
	}
	return rows
}

// WriteAblation runs and prints the experiment.
func WriteAblation(w io.Writer, cfg AblationConfig) []AblationRow {
	rows := Ablation(cfg)
	fmt.Fprintf(w, "## Ablation — Nue design choices on %d random topologies (%d switches, %d links, k=%d)\n",
		cfg.Trials, cfg.Switches, cfg.SSLinks, cfg.VCs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\truntime\tescape-fallbacks\tislands\tΓmax\tcycle-searches")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%.0f\t%.0f\n",
			r.Variant, r.Runtime.Round(time.Millisecond), r.Fallbacks, r.Islands, r.GammaMax, r.Searches)
	}
	tw.Flush()
	return rows
}
