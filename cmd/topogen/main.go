// Command topogen generates the evaluation topologies and writes them in
// the text format understood by cmd/nueroute.
//
// Usage:
//
//	topogen -all                           # print Table 1 statistics
//	topogen -type torus -dims 4x4x3 -terminals 4 -out torus.topo
//	topogen -type random -switches 125 -links 1000 -terminals 8 -seed 7
//	topogen -type fattree -k 10 -levels 3 -terminals 11
//	topogen -type kautz|dragonfly|dragonfly180|cascade|tsubame
//
// -type takes every name of the topology roster (internal/topology); -k
// and -levels default to the family's own (4-ary 3-tree, Kautz(3,2)).
//
// Fault injection: -faillinks 0.01 removes 1% of switch-switch links,
// -failswitch N disconnects switch N.
//
// Multicast workloads: -groups 16 -group-size 8 emits 16 seeded random
// group memberships of 8 terminals each as mcastgroup lines alongside
// the topology (same -seed that drives the generator drives the
// membership draw).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/mcast"
	"repro/internal/topology"
)

func main() {
	var (
		all       = flag.Bool("all", false, "print the Table 1 statistics for all evaluation topologies")
		typ       = flag.String("type", "torus", "topology type: "+strings.Join(topology.Names(), ", "))
		dims      = flag.String("dims", "4x4x3", "torus/mesh dimensions")
		switches  = flag.Int("switches", 125, "random/fullmesh/dfgroup: switch count; ring: ring length")
		links     = flag.Int("links", 1000, "random: switch-switch links")
		terminals = flag.Int("terminals", 4, "terminals per switch (or per leaf for fat trees)")
		k         = flag.Int("k", 0, "fattree arity / kautz base (default: the family's)")
		levels    = flag.Int("levels", 0, "fattree levels / kautz word length (default: the family's)")
		redund    = flag.Int("redundancy", 1, "parallel links per connection (torus, mesh, kautz)")
		seed      = flag.Int64("seed", 1, "random seed")
		failLinks = flag.Float64("faillinks", 0, "fraction of switch-switch links to fail")
		failSw    = flag.Int("failswitch", -1, "switch ID to disconnect")
		groups    = flag.Int("groups", 0, "multicast groups to emit with the topology")
		groupSize = flag.Int("group-size", 8, "terminals per multicast group")
		out       = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	if *all {
		experiments.WriteTable1(os.Stdout, *seed)
		return
	}

	p := topology.Params{
		Dims: *dims, Switches: switches, Links: links, Terminals: terminals, Redundancy: redund, Seed: *seed,
	}
	// -k and -levels size two families differently, so neither has a
	// default of its own: a size is set only when its flag was given.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "k":
			p.K = k
		case "levels":
			p.Levels = levels
		}
	})
	tp, err := topology.ByName(*typ, p)
	if err != nil {
		fatal("%v", err)
	}

	if *failSw != -1 {
		if *failSw < 0 || *failSw >= tp.Net.NumNodes() || !tp.Net.IsSwitch(graph.NodeID(*failSw)) {
			fatal("-failswitch %d names no switch of %s", *failSw, tp.Name)
		}
		tp = topology.FailSwitch(tp, graph.NodeID(*failSw))
	}
	if *failLinks < 0 || *failLinks >= 1 {
		fatal("-faillinks %g is not a fraction in [0,1)", *failLinks)
	}
	if *failLinks > 0 {
		var n int
		tp, n = topology.InjectLinkFailures(tp, rand.New(rand.NewSource(*seed)), *failLinks)
		fmt.Fprintf(os.Stderr, "failed %d links\n", n)
	}
	if *groups > 0 {
		// Memberships are drawn after fault injection so they only cover
		// still-connected terminals.
		gs := mcast.SeededGroups(*seed, tp.Net, *groups, *groupSize)
		if len(gs) == 0 || len(gs[0].Members) < *groupSize {
			fatal("-group-size %d is more than the connected terminals of %s", *groupSize, tp.Name)
		}
		for _, g := range gs {
			tp.Groups = append(tp.Groups, g.Members)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := topology.Write(w, tp); err != nil {
		fatal("%v", err)
	}
	st := topology.Describe(tp)
	fmt.Fprintf(os.Stderr, "%s: %d switches, %d terminals, %d switch-switch links",
		st.Name, st.Switches, st.Terminals, st.SSLinks)
	if len(tp.Groups) > 0 {
		fmt.Fprintf(os.Stderr, ", %d mcast groups", len(tp.Groups))
	}
	fmt.Fprintln(os.Stderr)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
