package experiments

import (
	"io"

	"repro/internal/engines"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Fig10Config parameterizes the Fig. 10 / Table 1 reproduction.
type Fig10Config struct {
	// Phases limits the all-to-all shift phases per topology (0 = the
	// paper's full all-to-all; the default samples shift distances to
	// stay laptop-sized — relative throughput is preserved).
	Phases int
	// MaxVCs is the VC budget of the baselines, and Nue runs at every
	// VC count from 1 to it (paper: 8).
	MaxVCs int
	// Seed drives the random topology and Nue partitioning.
	Seed int64
	// Workers bounds Nue's routing goroutines (0 = GOMAXPROCS); the
	// output is identical for every value.
	Workers int
}

// DefaultFig10Config returns a reduced-phase configuration (use Phases=0
// for the paper's full all-to-all).
func DefaultFig10Config() Fig10Config {
	return Fig10Config{Phases: 16, MaxVCs: 8}
}

// Fig10 reproduces the throughput comparison on the seven Table 1
// topologies: all applicable OpenSM baselines under the VC budget plus
// Nue for every VC count from 1 to the budget.
func Fig10(cfg Fig10Config) []ThroughputRow {
	simCfg := sim.PaperConfig()
	var rows []ThroughputRow
	for _, tp := range topology.Table1(cfg.Seed) {
		for _, eng := range engines.Baselines(tp) {
			rows = append(rows, routeAndSimulate(tp, eng, cfg.MaxVCs, cfg.Phases, simCfg))
		}
		for k := 1; k <= cfg.MaxVCs; k++ {
			row := routeAndSimulate(tp, engines.Nue(cfg.Seed, cfg.Workers), k, cfg.Phases, simCfg)
			row.Routing = nueName(k)
			rows = append(rows, row)
		}
	}
	return rows
}

// WriteFig10 runs and prints the experiment.
func WriteFig10(w io.Writer, cfg Fig10Config) []ThroughputRow {
	rows := Fig10(cfg)
	PrintThroughput(w, "Fig. 10 — all-to-all throughput on the Table 1 topologies", rows)
	return rows
}
