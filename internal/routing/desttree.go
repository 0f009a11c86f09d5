package routing

import (
	"math"
	"sort"

	"repro/internal/dial"
	"repro/internal/graph"
)

// DestTree computes a shortest-path in-tree toward dest over the network
// (traffic orientation): parent[u] is the first channel of u's path toward
// dest (NoChannel for dest itself and unreachable nodes), dist[u] the
// weighted distance. weight[c] is the cost of traversing channel c; nil
// means unit weights. This is the network-level Dijkstra shared by the
// SSSP, DFSSSP and MinHop baselines (Nue's Algorithm 1 instead searches
// the complete CDG).
func DestTree(net *graph.Network, dest graph.NodeID, weight []float64) (parent []graph.ChannelID, dist []float64) {
	n := net.NumNodes()
	parent = make([]graph.ChannelID, n)
	dist = make([]float64, n)
	for i := range parent {
		parent[i] = graph.NoChannel
		dist[i] = math.Inf(1)
	}
	dist[dest] = 0
	h := dial.New(n)
	h.Insert(int(dest), 0)
	for {
		item, ok := h.ExtractMin()
		if !ok {
			break
		}
		v := graph.NodeID(item)
		dv := dist[v]
		// Relax incoming channels: a node u one hop "before" v routes to
		// dest via (u, v).
		for _, c := range net.In(v) {
			u := net.Channel(c).From
			w := 1.0
			if weight != nil {
				w = weight[c]
			}
			if nd := dv + w; nd < dist[u] {
				dist[u] = nd
				parent[u] = c
				h.InsertOrDecrease(int(u), nd)
			}
		}
	}
	return parent, dist
}

// AddPathLoad adds, for every source in mask, load to each channel on its
// in-tree path toward dest, normalized by the source count so one fully
// shared channel gains weight 1 per destination. The normalization keeps
// relative balancing pressure (DFSSSP-style) while bounding path stretch:
// a detour hop costs at least the unit base weight, so only >= 2x load
// imbalances justify longer routes — matching the near-minimal path
// lengths OpenSM's DFSSSP exhibits (paper §5.1). parent/dist must come
// from DestTree.
func AddPathLoad(net *graph.Network, dest graph.NodeID, parent []graph.ChannelID, dist []float64, isSource []bool, weight []float64) {
	n := net.NumNodes()
	// Process nodes in decreasing distance so children accumulate into
	// parents.
	order := make([]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		if parent[i] != graph.NoChannel {
			order = append(order, graph.NodeID(i))
		}
	}
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] > dist[order[j]] })
	cnt := make([]int32, n)
	totalSources := 0
	for _, u := range order {
		if isSource[u] && u != dest {
			cnt[u]++
			totalSources++
		}
	}
	if totalSources == 0 {
		return
	}
	scale := 1.0 / float64(totalSources)
	for _, u := range order {
		c := parent[u]
		weight[c] += float64(cnt[u]) * scale
		cnt[net.Channel(c).To] += cnt[u]
	}
}
