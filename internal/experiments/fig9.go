package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/engines"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/lash"
	"repro/internal/topology"
)

// Fig9Config parameterizes the Fig. 9 / §5.1 reproduction.
type Fig9Config struct {
	// Trials is the number of random topologies (the paper averages over
	// 1,000; the default is laptop-sized).
	Trials int
	// Switches, SSLinks, TerminalsPerSwitch describe the random
	// topologies (paper: 125, 1000, 8).
	Switches, SSLinks, TerminalsPerSwitch int
	// NueVCs lists the Nue VC counts to evaluate (paper: 1..8).
	NueVCs []int
	// Seed drives topology generation and partitioning.
	Seed int64
	// Workers bounds Nue's routing goroutines (0 = GOMAXPROCS); the
	// output is identical for every value.
	Workers int
}

// DefaultFig9Config returns the paper's topology parameters with a
// reduced trial count (use Trials=1000 for the full sweep).
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Trials:             5,
		Switches:           125,
		SSLinks:            1000,
		TerminalsPerSwitch: 8,
		NueVCs:             []int{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// Fig9Row is one box of the Fig. 9 box plot plus the §5.1 path-length and
// escape-fallback statistics, averaged over all trials.
type Fig9Row struct {
	Routing string
	// GammaMin/Avg/SD/Max are the Γ metrics of Fig. 9 (averaged per-trial
	// edge forwarding index statistics).
	GammaMin, GammaAvg, GammaSD, GammaMax float64
	// MaxPathLen is the average (over trials) maximum hop count; worst
	// observed in WorstPathLen.
	MaxPathLen   float64
	WorstPathLen int
	// VCsUsed is the average number of VCs the routing needed.
	VCsUsed float64
	// FallbackPct is the average percentage of destinations Nue routed
	// over the escape paths (0 for other routings).
	FallbackPct float64
	// Failures counts trials the engine could not route (VC limit).
	Failures int
}

// Fig9 reproduces the edge-forwarding-index comparison: LASH, DFSSSP and
// Nue with 1..8 VCs on random topologies.
func Fig9(cfg Fig9Config) []Fig9Row {
	type acc struct {
		Fig9Row
		trials int
	}
	accs := map[string]*acc{}
	order := []string{"lash", "dfsssp"}
	for _, k := range cfg.NueVCs {
		order = append(order, nueName(k))
	}
	get := func(name string) *acc {
		a, ok := accs[name]
		if !ok {
			a = &acc{}
			a.Routing = name
			accs[name] = a
		}
		return a
	}

	for trial := 0; trial < cfg.Trials; trial++ {
		rng := rngFor(cfg.Seed, trial)
		tp := topology.RandomTopology(rng, cfg.Switches, cfg.SSLinks, cfg.TerminalsPerSwitch)
		dests := tp.Net.Terminals()

		run := func(name string, eng routing.Engine, maxVCs int) {
			a := get(name)
			res, err := eng.Route(tp.Net, dests, maxVCs)
			if err != nil {
				a.Failures++
				return
			}
			g := metrics.EdgeForwardingIndex(tp.Net, res, nil)
			pl := metrics.PathLengths(tp.Net, res, nil)
			a.trials++
			a.GammaMin += float64(g.Min)
			a.GammaAvg += g.Avg
			a.GammaSD += g.SD
			a.GammaMax += float64(g.Max)
			a.MaxPathLen += float64(pl.Max)
			if pl.Max > a.WorstPathLen {
				a.WorstPathLen = pl.Max
			}
			a.VCsUsed += float64(res.VCs)
			if fb, ok := res.Stats["escape_fallbacks"]; ok {
				a.FallbackPct += 100 * fb / float64(len(dests))
			}
		}

		run("lash", lash.Engine{}, 8)
		run("dfsssp", dfsssp.Engine{}, 8)
		for _, k := range cfg.NueVCs {
			run(nueName(k), engines.Nue(cfg.Seed+int64(trial), cfg.Workers), k)
		}
	}

	rows := make([]Fig9Row, 0, len(order))
	for _, name := range order {
		a := get(name)
		if a.trials > 0 {
			n := float64(a.trials)
			a.GammaMin /= n
			a.GammaAvg /= n
			a.GammaSD /= n
			a.GammaMax /= n
			a.MaxPathLen /= n
			a.VCsUsed /= n
			a.FallbackPct /= n
		}
		rows = append(rows, a.Fig9Row)
	}
	return rows
}

// WriteFig9 runs and prints the experiment.
func WriteFig9(w io.Writer, cfg Fig9Config) []Fig9Row {
	rows := Fig9(cfg)
	fmt.Fprintf(w, "## Fig. 9 / §5.1 — edge forwarding index on %d random topologies (%d switches, %d links, %d terminals/switch)\n",
		cfg.Trials, cfg.Switches, cfg.SSLinks, cfg.TerminalsPerSwitch)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "routing\tΓmin\tΓavg\tΓsd\tΓmax\tmax-hops(avg)\tmax-hops(worst)\tVCs-used\tescape-fallback%\tfailed-trials")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%d\t%.1f\t%.3f\t%d\n",
			r.Routing, r.GammaMin, r.GammaAvg, r.GammaSD, r.GammaMax,
			r.MaxPathLen, r.WorstPathLen, r.VCsUsed, r.FallbackPct, r.Failures)
	}
	tw.Flush()
	return rows
}
