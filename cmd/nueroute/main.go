// Command nueroute routes a topology with a chosen engine, verifies the
// result, and prints statistics (and optionally the forwarding tables).
//
// Usage:
//
//	topogen -type torus -dims 4x4x3 -terminals 4 -out t.topo
//	nueroute -topo t.topo -algo nue -vcs 4
//	nueroute -topo t.topo -algo dfsssp -vcs 8 -tables
//
// Topology-aware engines (torus2qos, ftree) need generator metadata and
// therefore only work with -gen (generate instead of reading a file):
//
//	nueroute -gen torus -dims 4x4x3 -terminals 4 -algo torus2qos -vcs 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/engines"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

func main() {
	var (
		topo      = flag.String("topo", "", "topology file (from topogen)")
		gen       = flag.String("gen", "", "generate instead: "+strings.Join(topology.Names(), ", "))
		dims      = flag.String("dims", "4x4x3", "torus/mesh dimensions for -gen")
		switches  = flag.Int("switches", 32, "switch count for -gen random/ring/fullmesh/dfgroup")
		links     = flag.Int("links", 96, "link count for -gen random")
		terminals = flag.Int("terminals", 2, "terminals per switch for -gen")
		algo      = flag.String("algo", "nue", "routing engine: "+strings.Join(engines.Names(), ", "))
		vcs       = flag.Int("vcs", 4, "virtual channel budget")
		seed      = flag.Int64("seed", 1, "random seed")
		tables    = flag.Bool("tables", false, "dump the forwarding tables")
		gamma     = flag.Bool("gamma", true, "print edge forwarding index statistics")
	)
	flag.Parse()

	tp, err := load(*topo, *gen, topology.Params{
		Dims: *dims, Switches: switches, Links: links, Terminals: terminals, Seed: *seed,
	})
	if err != nil {
		fatal("%v", err)
	}
	eng, err := engines.ByName(*algo, tp, *seed, 0)
	if err != nil {
		fatal("%v", err)
	}
	dests := tp.Net.Terminals()
	if len(dests) == 0 {
		dests = tp.Net.Nodes()
	}

	start := time.Now()
	res, err := eng.Route(tp.Net, dests, *vcs)
	elapsed := time.Since(start)
	if err != nil {
		fatal("routing failed: %v", err)
	}
	fmt.Printf("topology: %s (%d switches, %d terminals)\n", tp.Name, tp.Net.NumSwitches(), tp.Net.NumTerminals())
	fmt.Printf("routing:  %s, %d VCs used (budget %d), computed in %s\n", res.Algorithm, res.VCs, *vcs, elapsed.Round(time.Microsecond))

	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		fatal("VERIFICATION FAILED: %v", err)
	}
	fmt.Printf("verified: %d source-destination pairs connected, deadlock-free (%d dependency edges, max %d hops)\n",
		rep.Pairs, rep.Deps, rep.MaxHops)
	for k, v := range res.Stats {
		fmt.Printf("stat:     %s = %g\n", k, v)
	}
	if *gamma {
		g := metrics.EdgeForwardingIndex(tp.Net, res, nil)
		fmt.Printf("gamma:    min %d / avg %.1f ± %.1f / max %d\n", g.Min, g.Avg, g.SD, g.Max)
		pl := metrics.PathLengths(tp.Net, res, nil)
		fmt.Printf("paths:    avg %.2f hops, max %d hops\n", pl.Avg, pl.Max)
	}
	if *tables {
		dumpTables(tp, res)
	}
}

func load(topoFile, gen string, p topology.Params) (*topology.Topology, error) {
	switch {
	case topoFile != "" && gen != "":
		return nil, fmt.Errorf("use either -topo or -gen, not both")
	case topoFile != "":
		f, err := os.Open(topoFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topology.Read(f)
	case gen != "":
		return topology.ByName(gen, p)
	default:
		return nil, fmt.Errorf("need -topo FILE or -gen TYPE")
	}
}

// dumpTables prints per-switch next hops: one line per (switch, dest).
func dumpTables(tp *topology.Topology, res *routing.Result) {
	g := tp.Net
	for _, s := range g.Switches() {
		for _, d := range res.Table.Dests() {
			c := res.Table.Next(s, d)
			if c == graph.NoChannel {
				continue
			}
			fmt.Printf("lft: sw %d dest %d -> node %d via channel %d (SL %d)\n",
				s, d, g.Channel(c).To, c, res.Layer(s, d))
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
