package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Fig1Config parameterizes the Fig. 1 reproduction.
type Fig1Config struct {
	// Phases limits the all-to-all shift phases (0 = full all-to-all, the
	// paper's workload).
	Phases int
	// Sim is the flit-level simulator configuration.
	Sim sim.Config
	// MaxVCs is the VC budget (the paper's network supports 4).
	MaxVCs int
	// Seed drives Nue partitioning.
	Seed int64
	// Workers bounds Nue's routing goroutines (0 = GOMAXPROCS); the
	// output is identical for every value.
	Workers int
	// Telemetry, when non-nil, instruments the Nue engine runs and the
	// flit simulator of every run. Purely observational: rows are
	// identical with and without it.
	Telemetry *telemetry.Registry
}

// DefaultFig1Config mirrors the paper: 4x4x3 torus, 4 terminals/switch,
// one failed switch, QDR InfiniBand, 2 KiB messages, at most 4 VCs.
func DefaultFig1Config() Fig1Config {
	return Fig1Config{Phases: 0, Sim: sim.PaperConfig(), MaxVCs: 4}
}

// Fig1 reproduces Fig. 1a (simulated all-to-all throughput on the faulty
// 4x4x3 torus) and Fig. 1b (required VCs): Up*/Down*, LASH, DFSSSP and
// Torus-2QoS under the VC budget, plus Nue for every VC count from 1 to
// the budget.
func Fig1(cfg Fig1Config) []ThroughputRow {
	tp := topology.Torus3D(4, 4, 3, 4, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[1][2][0])
	faulty.Name = "4x4x3-torus-1sw"

	simCfg := cfg.Sim
	simCfg.Telemetry = cfg.Telemetry.Sim()
	var rows []ThroughputRow
	for _, eng := range engines.Baselines(faulty) {
		rows = append(rows, routeAndSimulate(faulty, eng, cfg.MaxVCs, cfg.Phases, simCfg))
	}
	for k := 1; k <= cfg.MaxVCs; k++ {
		opts := core.DefaultOptions()
		opts.Seed = cfg.Seed
		opts.Workers = cfg.Workers
		opts.Telemetry = cfg.Telemetry.Engine()
		row := routeAndSimulate(faulty, core.New(opts), k, cfg.Phases, simCfg)
		row.Routing = nueName(k)
		rows = append(rows, row)
	}
	return rows
}

func nueName(k int) string { return fmt.Sprintf("nue-%dvc", k) }

// WriteFig1 runs and prints the experiment.
func WriteFig1(w io.Writer, cfg Fig1Config) []ThroughputRow {
	rows := Fig1(cfg)
	PrintThroughput(w, "Fig. 1 — all-to-all throughput and required VCs, faulty 4x4x3 torus (47 switches, 188 terminals)", rows)
	return rows
}
