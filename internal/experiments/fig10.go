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
	// Sim is the simulator configuration.
	Sim sim.Config
	// MaxVCs is the VC budget (paper: 8).
	MaxVCs int
	// NueVCs lists the Nue VC counts (paper: 1..8).
	NueVCs []int
	// Seed drives the random topology and Nue partitioning.
	Seed int64
	// Workers bounds Nue's routing goroutines (0 = GOMAXPROCS); the
	// output is identical for every value.
	Workers int
}

// DefaultFig10Config returns a reduced-phase configuration (use Phases=0
// for the paper's full all-to-all).
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Phases: 16,
		Sim:    sim.PaperConfig(),
		MaxVCs: 8,
		NueVCs: []int{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// Fig10 reproduces the throughput comparison on the seven Table 1
// topologies: all applicable OpenSM baselines plus Nue for each VC count.
func Fig10(cfg Fig10Config) []ThroughputRow {
	var rows []ThroughputRow
	for _, tp := range topology.Table1(cfg.Seed) {
		for _, eng := range engines.Baselines(tp) {
			rows = append(rows, routeAndSimulate(tp, eng, cfg.MaxVCs, cfg.Phases, cfg.Sim))
		}
		for _, k := range cfg.NueVCs {
			row := routeAndSimulate(tp, engines.Nue(cfg.Seed, cfg.Workers), k, cfg.Phases, cfg.Sim)
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
