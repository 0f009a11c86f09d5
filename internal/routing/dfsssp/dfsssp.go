// Package dfsssp implements the deadlock-free single-source shortest-path
// routing of Domke, Hoefler, Nagel (IPDPS'11): balanced shortest-path
// tables (SSSP) followed by an iterative deadlock-removal phase that
// searches each virtual layer's induced channel dependency graph for
// cycles and moves the paths inducing a weakest cycle edge to the next
// layer. DFSSSP fails — returns an error — when the required number of
// layers exceeds the virtual-channel budget, which is exactly the
// limitation Nue removes (paper §5.3).
package dfsssp

import (
	"errors"
	"fmt"

	"repro/internal/cdg"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/minhop"
)

// Engine is the DFSSSP routing engine.
type Engine struct{}

// Name implements routing.Engine.
func (Engine) Name() string { return "dfsssp" }

// Claims implements routing.Claimant: DFSSSP breaks every cycle by
// moving destinations to higher layers and errors out when the budget
// is exhausted, so successful results are deadlock-free at any budget.
func (Engine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// pair is one (source, destination) path unit moved between layers.
type pair struct {
	src, dst graph.NodeID
	layer    uint8
	path     []graph.ChannelID
}

// Route implements routing.Engine.
func (Engine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("dfsssp: need at least one virtual channel")
	}
	table := routing.NewTable(net, dests)
	minhop.Trees(net, dests, table)

	// Paths are tracked per (source switch, destination): terminals of a
	// switch share its path exactly (their injection channel adds only
	// acyclic-safe dependencies), so switch granularity is both faithful
	// and ~terminals-per-switch times cheaper.
	sources := sourceSwitches(net)
	pairs, err := collectPairs(net, table, sources, dests)
	if err != nil {
		return nil, fmt.Errorf("dfsssp: %w", err)
	}

	// Deadlock-removal phase: per layer, keep the induced CDG's path
	// counts while cycles are broken by moving the paths of the weakest
	// cycle dependency to the next layer.
	moved := 0
	var induced cdg.Induced
	for layer := 0; ; layer++ {
		if !induce(&induced, net, pairs, uint8(layer)) {
			break
		}
		for {
			cyc := induced.FindCycle()
			if cyc == nil {
				break
			}
			if layer+1 >= maxVCs {
				return nil, fmt.Errorf("dfsssp: cyclic dependencies remain in layer %d; required VCs exceed the limit of %d", layer, maxVCs)
			}
			for _, pi := range weakest(&induced, cyc).Users {
				p := &pairs[pi]
				if p.layer != uint8(layer) {
					continue
				}
				p.layer = uint8(layer + 1)
				for j := 0; j+1 < len(p.path); j++ {
					induced.Dep(p.path[j], p.path[j+1]).Count--
				}
				moved++
			}
		}
	}

	pairLayer := make([][]uint8, net.NumNodes())
	for n := range pairLayer {
		pairLayer[n] = make([]uint8, len(dests))
	}
	vcs := 1
	for i := range pairs {
		p := &pairs[i]
		l := p.layer
		di := table.DestIndex(p.dst)
		pairLayer[p.src][di] = l
		// Terminals attached to the source switch inherit its layer.
		for _, c := range net.Out(p.src) {
			if t := net.Channel(c).To; net.IsTerminal(t) {
				pairLayer[t][di] = l
			}
		}
		if int(l)+1 > vcs {
			vcs = int(l) + 1
		}
	}
	return &routing.Result{
		Algorithm: "dfsssp",
		Table:     table,
		VCs:       vcs,
		PairLayer: pairLayer,
		Stats:     map[string]float64{"paths_moved": float64(moved)},
	}, nil
}

// sourceSwitches returns the connected switches, the granularity at which
// path layers are assigned.
func sourceSwitches(net *graph.Network) []graph.NodeID {
	var out []graph.NodeID
	for _, s := range net.Switches() {
		if net.Degree(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// collectPairs walks every source->destination path once.
func collectPairs(net *graph.Network, table *routing.Table, sources, dests []graph.NodeID) ([]pair, error) {
	var pairs []pair
	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		for _, s := range sources {
			if s == d {
				continue
			}
			path, err := table.Path(s, d)
			if err != nil {
				// Unreachable in a disconnected component is fine.
				if errors.Is(err, routing.ErrNoRoute) {
					continue
				}
				return nil, err
			}
			if len(path) >= 2 {
				pairs = append(pairs, pair{src: s, dst: d, path: path})
			}
		}
	}
	return pairs, nil
}

// induce resets g to the CDG the layer's paths induce, each dependency
// listing the indices of the paths over it, and reports whether the layer
// holds any path.
func induce(g *cdg.Induced, net *graph.Network, pairs []pair, layer uint8) bool {
	g.Reset(net.NumChannels())
	held := false
	for i := range pairs {
		p := &pairs[i]
		if p.layer != layer {
			continue
		}
		held = true
		for j := 0; j+1 < len(p.path); j++ {
			d := g.Dep(p.path[j], p.path[j+1])
			d.Count++
			d.Users = append(d.Users, int32(i))
		}
	}
	return held
}

// weakest returns the cycle dependency with the fewest live paths. The
// scan order breaks ties and is part of the tables: the path into the
// closing dependency back to the cycle's head, then the closing one.
func weakest(g *cdg.Induced, cyc [][2]graph.ChannelID) *cdg.Dependency {
	var best *cdg.Dependency
	pick := func(e [2]graph.ChannelID) {
		if d := g.Dep(e[0], e[1]); best == nil || d.Count < best.Count {
			best = d
		}
	}
	for k := len(cyc) - 2; k >= 0; k-- {
		pick(cyc[k])
	}
	pick(cyc[len(cyc)-1])
	return best
}
