// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Fig. 1 (faulty-torus throughput and VC demand), Fig. 9
// (edge forwarding indices on random topologies), the §5.1 path-length
// statistics, Table 1 (topology configurations), Fig. 10 (throughput on
// seven topologies) and Fig. 11 (routing runtime scaling). Each experiment
// returns structured rows and can print itself as an aligned text table;
// cmd/nuebench is a thin wrapper.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ThroughputRow is one bar of Fig. 1a / Fig. 10.
type ThroughputRow struct {
	Topology string
	Routing  string
	// MaxVCs is the VC budget given to the engine; VCs the layers it
	// actually uses (Fig. 1b).
	MaxVCs, VCs int
	// FlitsPerCycle is aggregate delivered throughput; GBs the QDR-scaled
	// equivalent.
	FlitsPerCycle, GBs float64
	// RoutingTime is the table computation time.
	RoutingTime time.Duration
	// Err is non-empty when the engine was inapplicable (the paper's
	// missing bars/points).
	Err string
}

// connectedTerminals lists terminals that survived fault injection.
func connectedTerminals(net *graph.Network) []graph.NodeID {
	var out []graph.NodeID
	for _, t := range net.Terminals() {
		if net.Degree(t) > 0 {
			out = append(out, t)
		}
	}
	return out
}

// routeAndSimulate runs one engine on one topology and simulates the
// all-to-all exchange, verifying deadlock freedom along the way.
func routeAndSimulate(tp *topology.Topology, eng routing.Engine, maxVCs, phases int, cfg sim.Config) ThroughputRow {
	row := ThroughputRow{Topology: tp.Name, Routing: eng.Name(), MaxVCs: maxVCs}
	dests := connectedTerminals(tp.Net)
	start := time.Now()
	res, err := eng.Route(tp.Net, dests, maxVCs)
	row.RoutingTime = time.Since(start)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.VCs = res.VCs
	if _, err := verify.Check(tp.Net, res, nil); err != nil {
		row.Err = fmt.Sprintf("verification failed: %v", err)
		return row
	}
	msgs := sim.AllToAllShift(dests, phases)
	r, err := sim.Run(tp.Net, res, msgs, cfg)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	if r.Deadlocked {
		row.Err = "deadlocked in simulation"
		return row
	}
	row.FlitsPerCycle = r.FlitsPerCycle
	row.GBs = r.ThroughputGBs()
	return row
}

// PrintThroughput renders rows in the shape of Fig. 1a/1b or Fig. 10.
func PrintThroughput(w io.Writer, title string, rows []ThroughputRow) {
	fmt.Fprintf(w, "## %s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\trouting\tVC-limit\tVCs-used\tthroughput(flits/cycle)\t~GB/s\troute-time\tnote")
	for _, r := range rows {
		note := r.Err
		if note == "" {
			note = "ok"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.3f\t%.1f\t%s\t%s\n",
			r.Topology, r.Routing, r.MaxVCs, r.VCs, r.FlitsPerCycle, r.GBs,
			r.RoutingTime.Round(time.Millisecond), note)
	}
	tw.Flush()
}

// rngFor derives a deterministic per-trial RNG.
func rngFor(seed int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(trial)))
}
