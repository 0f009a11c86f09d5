// Package updn implements Up*/Down* routing (Schroeder et al., Autonet):
// channels are oriented "up" (toward a BFS root) or "down"; legal paths
// climb zero or more up channels and then descend zero or more down
// channels, which makes the induced channel dependency graph acyclic with
// a single virtual layer. Destination-based tables are built per
// destination so that a node forwards "down" only when its entire
// remaining path is down (otherwise a down->up transition could appear at
// the merge point).
package updn

import (
	"errors"
	"math"

	"repro/internal/bfs"
	"repro/internal/centrality"
	"repro/internal/dial"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Engine is the Up*/Down* routing engine, rooted at the switch of
// highest betweenness.
type Engine struct{}

// Name implements routing.Engine.
func (Engine) Name() string { return "updn" }

// Claims implements routing.Claimant: Up*/Down* forbids down->up turns,
// so the dependency graph is acyclic on a single virtual layer.
func (Engine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// Route implements routing.Engine. The result uses a single layer.
func (Engine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("updn: need at least one virtual channel")
	}
	root := pickRoot(net)
	if root == graph.NoNode {
		return nil, errors.New("updn: no usable root switch")
	}
	level := bfs.Forward(net, root).Dist

	// up reports whether traversing c moves toward the root.
	up := func(c graph.ChannelID) bool {
		ch := net.Channel(c)
		lf, lt := level[ch.From], level[ch.To]
		if lf != lt {
			return lt >= 0 && (lf < 0 || lt < lf)
		}
		return ch.To < ch.From // deterministic tie-break on equal levels
	}

	table := routing.NewTable(net, dests)
	n := net.NumNodes()
	distDown := make([]float64, n)
	nextDown := make([]graph.ChannelID, n)
	distAny := make([]float64, n)
	nextAny := make([]graph.ChannelID, n)
	h := dial.New(n)

	for _, d := range dests {
		if net.Degree(d) == 0 || level[d] < 0 {
			continue
		}
		// Phase A: all-down reachability. distDown[u] is the length of
		// the shortest path u -> d using only down channels.
		for i := 0; i < n; i++ {
			distDown[i] = math.Inf(1)
			nextDown[i] = graph.NoChannel
			distAny[i] = math.Inf(1)
			nextAny[i] = graph.NoChannel
		}
		distDown[d] = 0
		queue := []graph.NodeID{d}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, c := range net.In(v) { // c = (u, v); u routes down via c
				if !up(c) {
					u := net.Channel(c).From
					if math.IsInf(distDown[u], 1) {
						distDown[u] = distDown[v] + 1
						nextDown[u] = c
						queue = append(queue, u)
					}
				}
			}
		}
		// Phase B: nodes without an all-down path climb up toward the
		// nearest down-capable node (multi-source Dijkstra seeded with the
		// all-down distances).
		for i := 0; i < n; i++ {
			if !math.IsInf(distDown[i], 1) {
				distAny[i] = distDown[i]
				h.InsertOrDecrease(i, distDown[i])
			}
		}
		for {
			item, ok := h.ExtractMin()
			if !ok {
				break
			}
			v := graph.NodeID(item)
			for _, c := range net.In(v) { // c = (u, v)
				if !up(c) {
					continue // climbing must use up channels
				}
				u := net.Channel(c).From
				if nd := distAny[v] + 1; nd < distAny[u] && math.IsInf(distDown[u], 1) {
					distAny[u] = nd
					nextAny[u] = c
					h.InsertOrDecrease(int(u), nd)
				}
			}
		}
		for _, s := range net.Switches() {
			if s == d {
				continue
			}
			switch {
			case nextDown[s] != graph.NoChannel:
				table.Set(s, d, nextDown[s])
			case nextAny[s] != graph.NoChannel:
				table.Set(s, d, nextAny[s])
			}
		}
	}
	return &routing.Result{Algorithm: "updn", Table: table, VCs: 1}, nil
}

// pickRoot selects the most central switch (Up*/Down* quality depends
// heavily on the root; OpenSM uses subnet heuristics, we use betweenness).
func pickRoot(net *graph.Network) graph.NodeID {
	switches := net.Switches()
	var usable []graph.NodeID
	for _, s := range switches {
		if net.Degree(s) > 0 {
			usable = append(usable, s)
		}
	}
	return centrality.MostCentral(net, usable)
}
