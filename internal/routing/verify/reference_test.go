package verify

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// ReferenceCheck is the full-walk reference Check is tested against: it
// walks every owed pair from its source to its destination with
// routing.Walk, shares nothing between pairs or destinations, and feeds
// every hop of every path to the dependency graph. Its Steps is therefore
// the sum of the path lengths. Reach comes from graph.ReverseBFS and
// dependencies are deduplicated through a map, so of Check's own code
// only the cycle search is reused. It lives in a test file: production
// code has one certifier.
func ReferenceCheck(net *graph.Network, res *routing.Result, sources []graph.NodeID) (*Report, error) {
	if sources == nil {
		sources = defaultSources(net)
	}
	vcs := res.VCs
	if vcs < 1 {
		vcs = 1
	}
	rep := &Report{}
	dg := &inducedCDG{vcs: vcs, adj: make([][]int32, net.NumChannels()*vcs)}
	seen := make(map[[2]int32]bool)
	for _, d := range res.Table.Dests() {
		if net.Degree(d) == 0 {
			continue
		}
		reach := graph.ReverseBFS(net, d)
		for _, s := range sources {
			if s == d || reach.Dist[s] < 0 {
				continue
			}
			path, err := routing.Walk(net, res, s, d, nil)
			if err != nil {
				return rep, fmt.Errorf("verify: %w", err)
			}
			if _, explicit := res.PairPath[routing.PairKey(s, d)]; !explicit {
				rep.Steps += len(path)
			}
			sl := res.Layer(s, d)
			var prev int32
			for i, c := range path {
				vl := res.VL(sl, c)
				if int(vl) >= vcs {
					return rep, fmt.Errorf("verify: path %d -> %d occupies VL %d on channel %d (hop %d), budget is %d VCs", s, d, vl, c, i, vcs)
				}
				v := int32(int(c)*vcs + int(vl))
				if e := [2]int32{prev, v}; i > 0 && !seen[e] {
					seen[e] = true
					dg.adj[prev] = append(dg.adj[prev], v)
				}
				prev = v
			}
			rep.Pairs++
			if len(path) > rep.MaxHops {
				rep.MaxHops = len(path)
			}
		}
	}
	rep.Deps = len(seen)
	return rep, checkDeadlockFree(dg, rep)
}
