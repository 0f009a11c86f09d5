// Package smart implements a simplified smart routing (Cherkasova, Kotov,
// Rokicki, HICSS'96 — the paper's §4.2/§6 reference): compute shortest
// paths, inspect the induced channel dependency graph for cycles, cut a
// cycle edge (prohibit that dependency), and recompute the paths that used
// it while honoring all prohibitions — repeating until the CDG is acyclic.
//
// Smart routing needs no virtual channels, but, as Cherkasova et al.
// observed and the Nue paper stresses, the incremental prohibitions can
// paint the search into a corner: a destination can become unreachable
// under the accumulated restrictions (an impasse). Unlike Nue, smart
// routing has no escape paths — it fails. The engine returns an error in
// that case, which is exactly the behavior Nue §4.2 was designed to
// eliminate. (The original's path recomputation minimizes average path
// length at O(|switches|^9) cost; this implementation uses shortest-path
// recomputation, preserving the structure, not the polynomial.)
package smart

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bfs"
	"repro/internal/cdg"
	"repro/internal/dial"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Engine is the simplified smart routing engine.
type Engine struct{}

// Name implements routing.Engine.
func (Engine) Name() string { return "smart" }

// Claims implements routing.Claimant: smart routing iterates until the
// induced CDG is acyclic (or fails at an impasse), so results it does
// return are deadlock-free on a single layer.
func (Engine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// Route implements routing.Engine. The result uses a single layer; maxVCs
// only gates the >= 1 sanity check (smart routing predates VCs).
func (Engine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("smart: need at least one virtual channel")
	}
	maxIter := 4 * net.NumChannels()
	st := &state{
		net:       net,
		dests:     dests,
		forbidden: make(map[int64]bool),
		parent:    make(map[graph.NodeID][]graph.ChannelID, len(dests)),
	}
	// Initial shortest paths per destination.
	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		p, ok := st.destTree(d)
		if !ok {
			return nil, fmt.Errorf("smart: destination %d unreachable", d)
		}
		st.parent[d] = p
	}
	for iter := 0; ; iter++ {
		cyc := st.findCycle()
		if cyc == nil {
			break
		}
		if iter >= maxIter {
			return nil, fmt.Errorf("smart: no acyclic solution after %d cuts", iter)
		}
		// Cut the cycle edge used by the fewest destinations and
		// recompute every destination that depended on it.
		cut := st.weakestEdge(cyc)
		st.forbidden[depKey(cut.From, cut.To)] = true
		for _, di := range cut.Users {
			d := dests[di]
			p, ok := st.destTree(d)
			if !ok {
				// The impasse Cherkasova et al. report: the prohibitions
				// leave no dependency-respecting path. Smart routing has
				// no escape paths to fall back to.
				return nil, fmt.Errorf("smart: impasse — destination %d unreachable under %d prohibitions",
					d, len(st.forbidden))
			}
			st.parent[d] = p
		}
	}
	table := routing.NewTable(net, dests)
	for d, parent := range st.parent {
		for n := 0; n < net.NumNodes(); n++ {
			if c := parent[n]; c != graph.NoChannel && net.IsSwitch(graph.NodeID(n)) {
				table.Set(graph.NodeID(n), d, c)
			}
		}
	}
	return &routing.Result{
		Algorithm: "smart",
		Table:     table,
		VCs:       1,
		Stats:     map[string]float64{"prohibitions": float64(len(st.forbidden))},
	}, nil
}

// state carries the cut-and-recompute loop's data.
type state struct {
	net       *graph.Network
	dests     []graph.NodeID
	forbidden map[int64]bool // prohibited dependencies (c1 -> c2)
	parent    map[graph.NodeID][]graph.ChannelID
	cdg       cdg.Induced // the CDG the current trees induce
}

func depKey(a, b graph.ChannelID) int64 { return int64(a)<<32 | int64(uint32(b)) }

// destTree computes a shortest path in-tree toward d that honors the
// forbidden dependency set. Because legality depends on the previous
// channel, the search runs over channels (traffic orientation, expanding
// from d over reversed channels), like Nue's Algorithm 1 but with a fixed
// prohibition set instead of online cycle checks. Destination-based
// consistency follows from keeping, per node, only the channel of its
// best accepted path (stale queue entries are skipped).
func (st *state) destTree(d graph.NodeID) ([]graph.ChannelID, bool) {
	net := st.net
	n, nc := net.NumNodes(), net.NumChannels()
	nodeDist := make([]float64, n)
	chDist := make([]float64, nc)
	used := make([]graph.ChannelID, n) // channel (u, v) with v one hop closer to d
	for i := range nodeDist {
		nodeDist[i] = math.Inf(1)
		used[i] = graph.NoChannel
	}
	for i := range chDist {
		chDist[i] = math.Inf(1)
	}
	nodeDist[d] = 0
	h := dial.New(nc)
	for _, c := range net.In(d) { // channels (u, d)
		u := net.Channel(c).From
		if 1 < nodeDist[u] {
			nodeDist[u] = 1
			chDist[c] = 1
			used[u] = c
			h.InsertOrDecrease(int(c), 1)
		}
	}
	for {
		item, ok := h.ExtractMin()
		if !ok {
			break
		}
		cp := graph.ChannelID(item) // (u, v): u routes over cp toward d
		u := net.Channel(cp).From
		if used[u] != cp {
			continue // stale
		}
		// Relax predecessors w: w -> u -> ... -> d uses dependency
		// ((w,u), cp), which must not be prohibited.
		for _, cq := range net.In(u) {
			if st.forbidden[depKey(cq, cp)] {
				continue
			}
			w := net.Channel(cq).From
			if net.Channel(cq).To != u || w == net.Channel(cp).To {
				continue // u-turns are never legal
			}
			if nd := chDist[cp] + 1; nd < nodeDist[w] {
				nodeDist[w] = nd
				chDist[cq] = nd
				used[w] = cq
				h.InsertOrDecrease(int(cq), nd)
			}
		}
	}
	// Completeness: every connected node must be reached.
	reach := bfs.Forward(net, d)
	for i := 0; i < n; i++ {
		if reach.Dist[i] > 0 && used[i] == graph.NoChannel {
			return nil, false
		}
	}
	return used, true
}

// findCycle rebuilds the CDG the current trees induce, each dependency
// listing the indices (in dests order) of the destinations using it, and
// returns one of its cycles, or nil if it is acyclic. The dependencies
// are added in dests order, so which destination an impasse error names
// does not depend on map order, and the search visits successors in
// ascending order, so neither do the cut sequence and the verdict.
func (st *state) findCycle() [][2]graph.ChannelID {
	st.cdg.Reset(st.net.NumChannels())
	for di, d := range st.dests {
		parent := st.parent[d]
		if parent == nil {
			continue // unattached destination, never routed
		}
		for n := 0; n < st.net.NumNodes(); n++ {
			c1 := parent[n]
			if c1 == graph.NoChannel {
				continue
			}
			v := st.net.Channel(c1).To
			if v == d {
				continue
			}
			c2 := parent[v]
			if c2 == graph.NoChannel {
				continue
			}
			dep := st.cdg.Dep(c1, c2)
			dep.Count++
			dep.Users = append(dep.Users, int32(di))
		}
	}
	st.cdg.SortSuccessors()
	return st.cdg.FindCycle()
}

// weakestEdge picks the cycle edge with the fewest using destinations,
// scanning from the closing edge back to the cycle's head: the scan order
// breaks ties and is part of the tables.
func (st *state) weakestEdge(cyc [][2]graph.ChannelID) *cdg.Dependency {
	var best *cdg.Dependency
	for k := len(cyc) - 1; k >= 0; k-- {
		if d := st.cdg.Dep(cyc[k][0], cyc[k][1]); best == nil || len(d.Users) < len(best.Users) {
			best = d
		}
	}
	return best
}
