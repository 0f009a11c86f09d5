package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/topology"
)

// Table1 computes the topology-configuration table of the paper.
func Table1(seed int64) []topology.Stats {
	tps := topology.Table1(seed)
	out := make([]topology.Stats, 0, len(tps))
	for _, tp := range tps {
		out = append(out, topology.Describe(tp))
	}
	return out
}

// WriteTable1 runs and prints the experiment.
func WriteTable1(w io.Writer, seed int64) []topology.Stats {
	rows := Table1(seed)
	fmt.Fprintln(w, "## Table 1 — topology configurations used for the throughput simulations")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tswitches\tterminals\tswitch-switch links")
	for _, s := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", s.Name, s.Switches, s.Terminals, s.SSLinks)
	}
	tw.Flush()
	return rows
}
