package updn

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bfs"
	"repro/internal/centrality"
	"repro/internal/graph"
	"repro/internal/routing"
)

// MultiEngine implements Multiple Up*/Down* routing (Flich et al.,
// ISHPC'02, the paper's §6): up to maxVCs independent Up*/Down* instances
// with different root switches run in separate virtual layers, and every
// (source, destination) switch pair uses the layer whose instance offers
// the shortest legal path. Each layer's CDG is acyclic by the Up*/Down*
// argument, so the combination is deadlock-free while spreading load away
// from any single root's bottleneck.
type MultiEngine struct{}

// Name implements routing.Engine.
func (MultiEngine) Name() string { return "mupdn" }

// Claims implements routing.Claimant: every layer is an Up*/Down*
// routing, each acyclic on its own virtual layer.
func (MultiEngine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// Route implements routing.Engine.
func (MultiEngine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("mupdn: need at least one virtual channel")
	}
	roots := pickRoots(net, maxVCs)
	if len(roots) == 0 {
		return nil, errors.New("mupdn: no usable root switches")
	}
	// One Up*/Down* instance per root; each gets its own table.
	subs := make([]*routing.Result, len(roots))
	for i, root := range roots {
		res, err := (Engine{Root: root}).Route(net, dests, 1)
		if err != nil {
			return nil, fmt.Errorf("mupdn: instance rooted at %d: %w", root, err)
		}
		subs[i] = res
	}
	// Per destination switch, compute each instance's distance from every
	// switch and pick the best layer per (source switch, destination).
	table := routing.NewTable(net, dests)
	pairLayer := make([][]uint8, net.NumNodes())
	for n := range pairLayer {
		pairLayer[n] = make([]uint8, len(dests))
	}
	// A single destination-based table cannot hold several instances'
	// next hops at once, and Flich et al.'s scheme selects routes per
	// (source, destination) pair anyway. Layer 0's instance provides the
	// destination-based default table; pairs that prefer another layer
	// carry explicit per-pair routes (routing.Result.PairPath).
	pairPath := make(map[uint64][]graph.ChannelID)
	hops := func(res *routing.Result, s, d graph.NodeID) int {
		p, err := routing.Walk(net, res, s, d, nil)
		if err != nil {
			return 1 << 30
		}
		return len(p)
	}
	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		for _, s := range net.Switches() {
			if net.Degree(s) == 0 || s == d {
				continue
			}
			best, bestHops := -1, 1<<30
			for i, sub := range subs {
				if h := hops(sub, s, d); h < bestHops {
					best, bestHops = i, h
				}
			}
			if best < 0 {
				continue
			}
			di := table.DestIndex(d)
			// Layer 0's table doubles as the destination-based default;
			// other layers contribute explicit per-pair routes.
			if next := subs[0].Table.Next(s, d); next != graph.NoChannel {
				table.Set(s, d, next)
			}
			for _, src := range sourcesAt(net, s) {
				if src == d {
					continue
				}
				pairLayer[src][di] = uint8(best)
				if best != 0 {
					p, err := routing.Walk(net, subs[best], src, d, nil)
					if err == nil {
						pairPath[routing.PairKey(src, d)] = p
					}
				}
			}
		}
	}
	res := &routing.Result{
		Algorithm: "mupdn",
		Table:     table,
		VCs:       len(roots),
		PairLayer: pairLayer,
		Stats:     map[string]float64{"roots": float64(len(roots))},
	}
	if len(pairPath) > 0 {
		res.PairPath = pairPath
	}
	return res, nil
}

// sourcesAt lists a switch and its attached terminals.
func sourcesAt(net *graph.Network, sw graph.NodeID) []graph.NodeID {
	out := []graph.NodeID{sw}
	for _, c := range net.Out(sw) {
		if t := net.Channel(c).To; net.IsTerminal(t) {
			out = append(out, t)
		}
	}
	return out
}

// pickRoots selects up to k well-separated, central switches.
func pickRoots(net *graph.Network, k int) []graph.NodeID {
	var usable []graph.NodeID
	for _, s := range net.Switches() {
		if net.Degree(s) > 0 {
			usable = append(usable, s)
		}
	}
	if len(usable) == 0 {
		return nil
	}
	if k > len(usable) {
		k = len(usable)
	}
	cb := centrality.Betweenness(net, nil)
	sort.Slice(usable, func(i, j int) bool {
		if cb[usable[i]] != cb[usable[j]] {
			return cb[usable[i]] > cb[usable[j]]
		}
		return usable[i] < usable[j]
	})
	// Greedy farthest-point among the top half by centrality.
	cand := usable
	if len(cand) > 2*k {
		cand = cand[:2*k]
	}
	roots := []graph.NodeID{cand[0]}
	distTo := bfs.Forward(net, cand[0]).Dist
	minDist := append([]int32(nil), distTo...)
	for len(roots) < k {
		best, bestD := graph.NoNode, int32(-1)
		for _, c := range cand {
			if d := minDist[c]; d > bestD {
				best, bestD = c, d
			}
		}
		if best == graph.NoNode || bestD == 0 {
			break
		}
		roots = append(roots, best)
		d2 := bfs.Forward(net, best).Dist
		for i := range minDist {
			if d2[i] >= 0 && (minDist[i] < 0 || d2[i] < minDist[i]) {
				minDist[i] = d2[i]
			}
		}
	}
	return roots
}
