// Package verify mechanically checks the correctness properties of a
// routing result (the paper's Lemmas 1-3, for Nue and every baseline):
//
//   - Connectivity: a valid path exists from every source to every
//     destination in the same network component (Lemma 3).
//   - Cycle-free, destination-based paths: following the tables never
//     revisits a node (Lemma 1; the destination-based property holds by
//     construction of routing.Table, uniqueness per (node, destination)).
//   - Deadlock freedom: the dependency graph over virtual channels
//     (channel, VL) induced by all source->destination paths is acyclic
//     (Theorem 1 / Lemma 2). Per-hop VL selection via SL2VL mappings is
//     supported, so Torus-2QoS-style dateline schemes verify exactly.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Report summarizes a verification run.
type Report struct {
	// Pairs is the number of (source, destination) pairs checked.
	Pairs int
	// MaxHops is the longest path encountered.
	MaxHops int
	// Deps counts distinct dependency edges over (channel, VL) vertices.
	Deps int
	// DeadlockFree is true when the induced dependency graph is acyclic.
	DeadlockFree bool
	// CyclicVLs lists the virtual lanes of vertices involved in cycles.
	CyclicVLs []int
}

// Check runs all verifications for the given sources (nil = all
// terminals, or all connected nodes if the network has no terminals) and
// returns an error describing the first violated property. Every owed
// pair is walked once, by routing.Walk; the walked path feeds the
// connectivity verdict, MaxHops and the induced dependency graph.
func Check(net *graph.Network, res *routing.Result, sources []graph.NodeID) (*Report, error) {
	if sources == nil {
		sources = defaultSources(net)
	}
	rep := &Report{}
	dg := newInducedCDG(net, res)
	var path []graph.ChannelID
	for _, d := range res.Table.Dests() {
		if net.Degree(d) == 0 {
			continue // destination disconnected by faults
		}
		dg.epoch++
		reach := graph.ReverseBFS(net, d)
		for _, s := range sources {
			if s == d || reach.Dist[s] < 0 {
				continue // cannot reach d (one-way faults); no path required
			}
			var err error
			if path, err = routing.Walk(net, res, s, d, path); err != nil {
				return rep, fmt.Errorf("verify: %w", err)
			}
			rep.Pairs++
			if len(path) > rep.MaxHops {
				rep.MaxHops = len(path)
			}
			if err := dg.addPath(s, d, path); err != nil {
				return rep, err
			}
		}
	}
	rep.Deps = dg.deps
	return rep, checkDeadlockFree(dg, rep)
}

func defaultSources(net *graph.Network) []graph.NodeID {
	if net.NumTerminals() > 0 {
		// Keep only connected terminals (fault injection may orphan some).
		var out []graph.NodeID
		for _, t := range net.Terminals() {
			if net.Degree(t) > 0 {
				out = append(out, t)
			}
		}
		return out
	}
	var out []graph.NodeID
	for n := 0; n < net.NumNodes(); n++ {
		if net.Degree(graph.NodeID(n)) > 0 {
			out = append(out, graph.NodeID(n))
		}
	}
	return out
}

// checkDeadlockFree checks the induced dependency graph for cycles.
func checkDeadlockFree(dg *inducedCDG, rep *Report) error {
	cyclic := cyclicVertices(len(dg.adj), dg.adj)
	if len(cyclic) == 0 {
		rep.DeadlockFree = true
		return nil
	}
	vlSet := map[int]bool{}
	for _, v := range cyclic {
		vlSet[int(v)%dg.vcs] = true
	}
	for vl := range vlSet {
		rep.CyclicVLs = append(rep.CyclicVLs, vl)
	}
	sort.Ints(rep.CyclicVLs)
	return fmt.Errorf("verify: cyclic channel dependency graph on VLs %v (deadlock possible)", rep.CyclicVLs)
}

// inducedCDG is the dependency graph over virtual-channel vertices
// (channel*VCs + vl) induced by the traffic paths handed to addPath.
type inducedCDG struct {
	net  *graph.Network
	res  *routing.Result
	vcs  int
	adj  [][]int32
	seen []map[int32]bool
	deps int // distinct dependency edges
	// visited[sl][node] == epoch: the table suffix from node to the
	// current destination is already recorded for service level sl (it is
	// the same for every source). Check advances epoch per destination.
	visited map[uint8][]int32
	epoch   int32
}

func newInducedCDG(net *graph.Network, res *routing.Result) *inducedCDG {
	vcs := res.VCs
	if vcs < 1 {
		vcs = 1
	}
	nv := net.NumChannels() * vcs
	return &inducedCDG{
		net: net, res: res, vcs: vcs,
		adj:     make([][]int32, nv),
		seen:    make([]map[int32]bool, nv),
		visited: make(map[uint8][]int32),
	}
}

// addPath records the dependencies of the walked path s -> d. A lane
// outside the VC budget is an error, never folded onto the last lane.
func (g *inducedCDG) addPath(s, d graph.NodeID, path []graph.ChannelID) error {
	sl := g.res.Layer(s, d)
	_, explicit := g.res.PairPath[routing.PairKey(s, d)]
	vis := g.visited[sl]
	if vis == nil && !explicit {
		vis = make([]int32, g.net.NumNodes())
		g.visited[sl] = vis
	}
	var prev int32
	for i, c := range path {
		vl := g.res.VL(sl, c)
		if int(vl) >= g.vcs {
			return fmt.Errorf("verify: path %d -> %d occupies VL %d on channel %d (hop %d), budget is %d VCs", s, d, vl, c, i, g.vcs)
		}
		v := int32(int(c)*g.vcs + int(vl))
		if i > 0 {
			g.addDep(prev, v)
		}
		prev = v
		if explicit {
			continue // a source-routed path shares no suffix
		}
		at := g.net.Channel(c).From
		if i > 0 && vis[at] == g.epoch {
			break
		}
		vis[at] = g.epoch
	}
	return nil
}

func (g *inducedCDG) addDep(a, b int32) {
	m := g.seen[a]
	if m == nil {
		m = make(map[int32]bool)
		g.seen[a] = m
	}
	if !m[b] {
		m[b] = true
		g.adj[a] = append(g.adj[a], b)
		g.deps++
	}
}

// cyclicVertices returns the vertices left after Kahn's algorithm, i.e.
// those participating in (or downstream-locked behind) a cycle.
func cyclicVertices(nv int, adj [][]int32) []int32 {
	indeg := make([]int32, nv)
	for _, succ := range adj {
		for _, b := range succ {
			indeg[b]++
		}
	}
	var queue []int32
	removed := make([]bool, nv)
	for v := 0; v < nv; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
			removed[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, b := range adj[v] {
			indeg[b]--
			if indeg[b] == 0 && !removed[b] {
				removed[b] = true
				queue = append(queue, b)
			}
		}
	}
	var cyc []int32
	for v := 0; v < nv; v++ {
		if !removed[v] && (len(adj[v]) > 0 || indeg[v] > 0) {
			cyc = append(cyc, int32(v))
		}
	}
	return cyc
}

// RequiredVCs reports how many distinct layers the result actually uses.
func RequiredVCs(res *routing.Result) int {
	used := make(map[uint8]bool)
	switch {
	case res.DestLayer != nil:
		for _, l := range res.DestLayer {
			used[l] = true
		}
	case res.PairLayer != nil:
		for _, row := range res.PairLayer {
			for _, l := range row {
				used[l] = true
			}
		}
	default:
		return 1
	}
	if len(used) == 0 {
		return 1
	}
	max := uint8(0)
	for l := range used {
		if l > max {
			max = l
		}
	}
	return int(max) + 1
}
