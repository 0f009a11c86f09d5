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
	"math/rand"
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
		gen       = flag.String("gen", "", "generate instead: torus, mesh, random, fattree, kautz, dragonfly, cascade, tsubame, ring, fullmesh, dfgroup")
		dims      = flag.String("dims", "4x4x3", "torus dimensions for -gen torus")
		switches  = flag.Int("switches", 32, "switch count for -gen random/ring")
		links     = flag.Int("links", 96, "link count for -gen random")
		terminals = flag.Int("terminals", 2, "terminals per switch for -gen")
		algo      = flag.String("algo", "nue", "routing engine: nue, updn, lash, dfsssp, ftree, torus2qos, dor, angara, fullmesh, exists, minhop, sssp")
		vcs       = flag.Int("vcs", 4, "virtual channel budget")
		seed      = flag.Int64("seed", 1, "random seed")
		tables    = flag.Bool("tables", false, "dump the forwarding tables")
		gamma     = flag.Bool("gamma", true, "print edge forwarding index statistics")
	)
	flag.Parse()

	tp, err := load(*topo, *gen, *dims, *switches, *links, *terminals, *seed)
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

func load(topoFile, gen, dims string, switches, links, terminals int, seed int64) (*topology.Topology, error) {
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
		rng := rand.New(rand.NewSource(seed))
		switch gen {
		case "torus", "mesh":
			var dx, dy, dz int
			if _, err := fmt.Sscanf(strings.ToLower(dims), "%dx%dx%d", &dx, &dy, &dz); err != nil {
				return nil, fmt.Errorf("bad -dims %q: %v", dims, err)
			}
			if gen == "mesh" {
				return topology.Mesh3D(dx, dy, dz, terminals, 1), nil
			}
			return topology.Torus3D(dx, dy, dz, terminals, 1), nil
		case "random":
			return topology.RandomTopology(rng, switches, links, terminals), nil
		case "fattree":
			return topology.KAryNTree(4, 3, terminals), nil
		case "kautz":
			return topology.Kautz(3, 2, terminals, 1), nil
		case "dragonfly":
			return topology.Dragonfly(12, 6, 6, 15), nil
		case "cascade":
			return topology.Cascade2Group(), nil
		case "tsubame":
			return topology.TsubameLike(), nil
		case "ring":
			return topology.Ring(switches, terminals), nil
		case "fullmesh":
			return topology.FullMesh(switches, terminals), nil
		case "dfgroup":
			return topology.DragonflyGroup(switches, terminals), nil
		default:
			return nil, fmt.Errorf("unknown generator %q", gen)
		}
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
