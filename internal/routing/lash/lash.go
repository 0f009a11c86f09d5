// Package lash implements LAyered SHortest path routing (Skeie, Lysne,
// Theiss, IPDPS'02): minimal paths between switch pairs are assigned
// greedily to the lowest virtual layer in which their channel
// dependencies keep that layer's CDG acyclic. LASH fails — returns an
// error — when a path fits no layer within the VC budget.
package lash

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bfs"
	"repro/internal/cdg"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Engine is the LASH routing engine.
type Engine struct{}

// Name implements routing.Engine.
func (Engine) Name() string { return "lash" }

// Claims implements routing.Claimant: LASH admits a path into a layer
// only when the layer CDG stays acyclic, for any budget (it fails,
// rather than overflows, when the budget is too small).
func (Engine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// swPair is one switch-to-switch path unit placed into a layer.
type swPair struct {
	src, dst graph.NodeID
	path     []graph.ChannelID
}

// Route implements routing.Engine. It runs both LASH phases with up to
// maxVCs layers and refuses the fabric at the first pair, in placement
// order, that fits no layer.
func (Engine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("lash: need at least one virtual channel")
	}
	table := routing.NewTable(net, dests)
	// Phase 1: minimum-hop trees per destination *switch* (plain BFS,
	// LASH does not balance). All destinations attached to a switch share
	// its tree, so the switch-pair paths that phase 2 assigns to layers
	// are exactly the switch-level portions of the terminal paths.
	destsBySwitch := make(map[graph.NodeID][]graph.NodeID)
	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		att := d
		if net.IsTerminal(d) {
			att = net.TerminalSwitch(d)
		}
		destsBySwitch[att] = append(destsBySwitch[att], d)
	}
	for dstSw, ds := range destsBySwitch {
		res := bfs.Forward(net, dstSw)
		for _, s := range net.Switches() {
			if res.Dist[s] < 0 {
				continue
			}
			var next graph.ChannelID
			if s == dstSw {
				next = graph.NoChannel
			} else if p := res.Parent[s]; p != graph.NoChannel {
				// res.Parent[s] points toward s; its reverse points back
				// toward dstSw.
				next = net.Channel(p).Reverse
			}
			for _, d := range ds {
				switch {
				case s == dstSw && net.IsTerminal(d):
					table.Set(s, d, net.FindChannel(s, d)) // delivery hop
				case s != d && next != graph.NoChannel:
					table.Set(s, d, next)
				}
			}
		}
	}

	// Phase 2: assign each (srcSwitch, dstSwitch) pair to a layer.
	layers := make([]*cdg.Induced, 0, maxVCs)
	switches := net.Switches()
	// Longest paths first: classic LASH ordering improves packing.
	var pairs []swPair
	for dstSw, ds := range destsBySwitch {
		rep := ds[0] // all destinations of a switch share its tree
		for _, s := range switches {
			if s == dstSw || net.Degree(s) == 0 {
				continue
			}
			path, err := switchPath(net, table, s, dstSw, rep)
			if err != nil {
				if errors.Is(err, routing.ErrNoRoute) {
					continue
				}
				return nil, fmt.Errorf("lash: %w", err)
			}
			if len(path) >= 2 {
				pairs = append(pairs, swPair{s, dstSw, path})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if len(pairs[i].path) != len(pairs[j].path) {
			return len(pairs[i].path) > len(pairs[j].path)
		}
		if pairs[i].src != pairs[j].src {
			return pairs[i].src < pairs[j].src
		}
		return pairs[i].dst < pairs[j].dst
	})

	pairLayerSw := make(map[[2]graph.NodeID]uint8, len(pairs))
	for _, p := range pairs {
		placed := false
		for li, l := range layers {
			if tryAddPath(l, p.path) {
				pairLayerSw[[2]graph.NodeID{p.src, p.dst}] = uint8(li)
				placed = true
				break
			}
		}
		if !placed {
			if len(layers) >= maxVCs {
				return nil, fmt.Errorf("lash: path %d->%d fits no layer; required VCs exceed the limit of %d",
					p.src, p.dst, maxVCs)
			}
			l := new(cdg.Induced)
			l.Reset(net.NumChannels())
			if !tryAddPath(l, p.path) {
				return nil, fmt.Errorf("lash: internal error: path cyclic in empty layer")
			}
			layers = append(layers, l)
			pairLayerSw[[2]graph.NodeID{p.src, p.dst}] = uint8(len(layers) - 1)
		}
	}

	// Expand switch-pair layers to terminal pairs.
	pairLayer := make([][]uint8, net.NumNodes())
	for n := 0; n < net.NumNodes(); n++ {
		pairLayer[n] = make([]uint8, len(dests))
	}
	for s := 0; s < net.NumNodes(); s++ {
		src := graph.NodeID(s)
		if net.Degree(src) == 0 {
			continue
		}
		srcSw := src
		if net.IsTerminal(src) {
			srcSw = net.TerminalSwitch(src)
		}
		for dstSw, ds := range destsBySwitch {
			l, ok := pairLayerSw[[2]graph.NodeID{srcSw, dstSw}]
			if !ok {
				continue
			}
			for _, d := range ds {
				pairLayer[src][table.DestIndex(d)] = l
			}
		}
	}
	vcs := len(layers)
	if vcs == 0 {
		vcs = 1
	}
	return &routing.Result{
		Algorithm: "lash",
		Table:     table,
		VCs:       vcs,
		PairLayer: pairLayer,
	}, nil
}

// switchPath follows the table toward representative destination rep but
// stops at its attachment switch dstSw, yielding the switch-level portion
// shared by all of dstSw's destinations.
func switchPath(net *graph.Network, table *routing.Table, s, dstSw, rep graph.NodeID) ([]graph.ChannelID, error) {
	var path []graph.ChannelID
	cur := s
	for steps := 0; cur != dstSw; steps++ {
		if steps > net.NumNodes() {
			return nil, fmt.Errorf("%w: %d -> %d", routing.ErrRoutingLoop, s, dstSw)
		}
		c := table.Next(cur, rep)
		if c == graph.NoChannel {
			return nil, fmt.Errorf("%w: at %d toward switch %d", routing.ErrNoRoute, cur, dstSw)
		}
		path = append(path, c)
		cur = net.Channel(c).To
	}
	return path, nil
}

// tryAddPath adds the path's dependencies to the layer's CDG if it stays
// acyclic; a dependency is present while its Count is positive. On
// failure the layer is left unchanged: the counts the path raised are
// zeroed again.
func tryAddPath(l *cdg.Induced, path []graph.ChannelID) bool {
	var raised []int // steps j whose dependency (path[j], path[j+1]) this path added
	for j := 0; j+1 < len(path); j++ {
		a, b := path[j], path[j+1]
		d := l.Dep(a, b)
		if d.Count > 0 {
			continue
		}
		// Adding a->b closes a cycle iff a is reachable from b.
		if l.Reaches(b, a) {
			for _, k := range raised {
				l.Dep(path[k], path[k+1]).Count = 0
			}
			return false
		}
		d.Count = 1
		raised = append(raised, j)
	}
	return true
}
