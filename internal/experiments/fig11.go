package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engines"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/lash"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// Fig11Config parameterizes the runtime-scaling reproduction.
type Fig11Config struct {
	// MinDim/MaxDim bound the torus sizes: the paper sweeps 2x2x2 up to
	// 10x10x10 with dimensions differing by at most one.
	MinDim, MaxDim int
	// TerminalsPerSwitch is 4 in the paper.
	TerminalsPerSwitch int
	// FailureRate is the injected link failure fraction (paper: 1%).
	FailureRate float64
	// MaxVCs is the VC budget (paper: 8).
	MaxVCs int
	// Verify additionally runs the deadlock verifier on each result
	// (excluded from the timing, expensive on large tori).
	Verify bool
	// Seed drives failure injection.
	Seed int64
	// Workers bounds Nue's routing goroutines (0 = GOMAXPROCS). Worker
	// counts above 1 change the measured wall-clock, never the routes.
	Workers int
}

// DefaultFig11Config covers tori up to 6x6x6 (use MaxDim=10 for the full
// sweep).
func DefaultFig11Config() Fig11Config {
	return Fig11Config{MinDim: 2, MaxDim: 6, TerminalsPerSwitch: 4, FailureRate: 0.01, MaxVCs: 8}
}

// Fig11Row is one data point of Fig. 11.
type Fig11Row struct {
	Torus     string
	Switches  int
	Terminals int
	Routing   string
	Runtime   time.Duration
	VCs       int
	// Err marks inapplicable combinations (the paper's missing points).
	Err string
}

// fig11 measures forwarding-table computation time for Nue, DFSSSP, LASH
// and Torus-2QoS on growing 3D tori with 1% random link failures,
// optionally reporting each row as it completes (long sweeps stream).
func fig11(cfg Fig11Config, onRow func(Fig11Row)) []Fig11Row {
	var rows []Fig11Row
	sizes := toriSizes(cfg.MinDim, cfg.MaxDim)
	for trial, dims := range sizes {
		tp := topology.Torus3D(dims[0], dims[1], dims[2], cfg.TerminalsPerSwitch, 1)
		faulty, _ := topology.InjectLinkFailures(tp, rngFor(cfg.Seed, trial), cfg.FailureRate)
		dests := connectedTerminals(faulty.Net)
		for _, eng := range []routing.Engine{
			engines.Nue(cfg.Seed, cfg.Workers),
			dfsssp.Engine{},
			lash.Engine{},
			dor.Engine{Meta: faulty.Torus, Datelines: true},
		} {
			row := Fig11Row{
				Torus:     fmt.Sprintf("%dx%dx%d", dims[0], dims[1], dims[2]),
				Switches:  faulty.Net.NumSwitches(),
				Terminals: len(dests),
				Routing:   eng.Name(),
			}
			start := time.Now()
			res, err := eng.Route(faulty.Net, dests, cfg.MaxVCs)
			row.Runtime = time.Since(start)
			if err != nil {
				row.Err = err.Error()
			} else {
				row.VCs = res.VCs
				if cfg.Verify {
					if _, err := verify.Check(faulty.Net, res, nil); err != nil {
						row.Err = fmt.Sprintf("verification failed: %v", err)
					}
				}
			}
			rows = append(rows, row)
			if onRow != nil {
				onRow(row)
			}
		}
	}
	return rows
}

// toriSizes enumerates the paper's torus dimensions: 2x2x2, 2x2x3, 2x3x3,
// 3x3x3, ... up to max^3, dimensions differing by at most one.
func toriSizes(min, max int) [][3]int {
	var out [][3]int
	for d := min; d <= max; d++ {
		out = append(out, [3]int{d, d, d})
		if d < max {
			out = append(out, [3]int{d, d, d + 1}, [3]int{d, d + 1, d + 1})
		}
	}
	return out
}

// WriteFig11 runs the experiment, streaming each row as it completes.
func WriteFig11(w io.Writer, cfg Fig11Config) []Fig11Row {
	fmt.Fprintf(w, "## Fig. 11 — routing runtime on 3D tori with %.0f%% link failures (%d terminals/switch, %d VC limit)\n",
		cfg.FailureRate*100, cfg.TerminalsPerSwitch, cfg.MaxVCs)
	fmt.Fprintln(w, "torus\tswitches\tterminals\trouting\truntime\tVCs\tnote")
	rows := fig11(cfg, func(r Fig11Row) {
		note := r.Err
		if note == "" {
			note = "ok"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%s\t%d\t%s\n",
			r.Torus, r.Switches, r.Terminals, r.Routing,
			r.Runtime.Round(time.Millisecond), r.VCs, note)
		if f, ok := w.(interface{ Sync() error }); ok {
			f.Sync()
		}
	})
	return rows
}
