// Package minhop implements OpenSM's MinHop, per-destination
// minimum-hop routing with greedy port-load balancing (OpenSM's
// default). It is NOT deadlock-free in general: it is the negative
// baseline that demonstrates why Nue/DFSSSP/LASH exist. Trees holds the
// path-quality half of DFSSSP: Hoefler et al.'s weighted single-source
// shortest-path routing with global balancing weight updates.
package minhop

import (
	"errors"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/routing"
)

// MinHop is OpenSM's default minimum-hop routing engine.
type MinHop struct{}

// Name implements routing.Engine.
func (MinHop) Name() string { return "minhop" }

// Claims implements routing.Claimant: MinHop balances shortest paths
// with no regard for channel dependencies — it claims nothing and is
// the harness's canonical deadlock-prone baseline.
func (MinHop) Claims() routing.Claims { return routing.Claims{} }

// Route computes minimum-hop tables with per-channel load balancing.
// The result uses a single layer and carries no deadlock-freedom
// guarantee; maxVCs is ignored beyond the >= 1 sanity check.
func (MinHop) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("minhop: need at least one virtual channel")
	}
	table := routing.NewTable(net, dests)
	load := make([]float64, net.NumChannels())
	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		res := bfs.Forward(net, d) // hop distances from d (duplex symmetric)
		for _, s := range net.Switches() {
			if s == d || res.Dist[s] < 0 {
				continue
			}
			// Among all minimal next hops, pick the least-loaded channel.
			var best graph.ChannelID = graph.NoChannel
			for _, c := range net.Out(s) {
				v := net.Channel(c).To
				if res.Dist[v] != res.Dist[s]-1 {
					continue
				}
				if best == graph.NoChannel || load[c] < load[best] {
					best = c
				}
			}
			if best == graph.NoChannel {
				continue
			}
			table.Set(s, d, best)
			load[best]++
		}
	}
	return &routing.Result{Algorithm: "minhop", Table: table, VCs: 1}, nil
}

// Trees fills table with balanced shortest-path in-trees toward each
// destination. Shared with the DFSSSP engine.
func Trees(net *graph.Network, dests []graph.NodeID, table *routing.Table) {
	weight := make([]float64, net.NumChannels())
	for i := range weight {
		weight[i] = 1
	}
	isSource := make([]bool, net.NumNodes())
	if net.NumTerminals() > 0 {
		for _, t := range net.Terminals() {
			isSource[t] = true
		}
	} else {
		for i := range isSource {
			isSource[i] = true
		}
	}
	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		parent, dist := destTree(net, d, weight)
		for _, s := range net.Switches() {
			if s != d && parent[s] != graph.NoChannel {
				table.Set(s, d, parent[s])
			}
		}
		addPathLoad(net, d, parent, dist, isSource, weight)
	}
}
