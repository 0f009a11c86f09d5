package partition

// The multilevel k-way partitioner as it was before its coarse graphs
// became flat (one slice per adjacency row, a map from switch to index,
// reflection-based sorts), kept verbatim but for the names as the
// reference the flat one must reproduce part for part.

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// referenceSplit partitions dests into k subsets using the given strategy. Every
// subset is non-empty provided k <= len(dests); subset sizes differ by at
// most one. The rng drives tie-breaking and must be non-nil.
func referenceSplit(g *graph.Network, dests []graph.NodeID, k int, s Strategy, rng *rand.Rand) [][]graph.NodeID {
	if k < 1 {
		panic("partition: k must be >= 1")
	}
	if k > len(dests) {
		k = len(dests)
	}
	if k == 1 {
		return [][]graph.NodeID{append([]graph.NodeID(nil), dests...)}
	}
	switch s {
	case Random:
		return refRandomSplit(dests, k, rng)
	case MultilevelKWay:
		return refKwaySplit(g, dests, k, rng)
	default:
		panic("partition: unknown strategy " + string(s))
	}
}

func refRandomSplit(dests []graph.NodeID, k int, rng *rand.Rand) [][]graph.NodeID {
	perm := rng.Perm(len(dests))
	parts := make([][]graph.NodeID, k)
	for i, p := range perm {
		parts[i%k] = append(parts[i%k], dests[p])
	}
	return parts
}

// refKwaySplit implements a simplified multilevel k-way partitioning of the
// network restricted to switches: coarsen by randomized heavy-edge
// matching, grow k balanced regions on the coarsest graph, refine the
// boundary greedily while projecting back, then map destinations to the
// partition of their attachment switch and rebalance destination counts.
func refKwaySplit(g *graph.Network, dests []graph.NodeID, k int, rng *rand.Rand) [][]graph.NodeID {
	switches := g.Switches()
	if len(switches) == 0 {
		return refRandomSplit(dests, k, rng)
	}
	cg := refBuildSwitchGraph(g, switches)
	part := cg.partition(k, rng)

	// Partition ID per switch node.
	partOf := make(map[graph.NodeID]int, len(switches))
	for i, s := range switches {
		partOf[s] = part[i]
	}
	parts := make([][]graph.NodeID, k)
	for _, d := range dests {
		sw := d
		if g.IsTerminal(d) && g.Degree(d) > 0 {
			sw = g.TerminalSwitch(d)
		}
		p, ok := partOf[sw]
		if !ok {
			p = rng.Intn(k)
		}
		parts[p] = append(parts[p], d)
	}
	return refRebalance(parts, rng)
}

// refFixEmpty steals single elements from the largest subsets so that no
// subset is empty.
func refFixEmpty(parts [][]graph.NodeID) [][]graph.NodeID {
	for i := range parts {
		if len(parts[i]) > 0 {
			continue
		}
		big := -1
		for j := range parts {
			if big < 0 || len(parts[j]) > len(parts[big]) {
				big = j
			}
		}
		if len(parts[big]) <= 1 {
			continue // cannot steal without emptying another subset
		}
		last := len(parts[big]) - 1
		parts[i] = append(parts[i], parts[big][last])
		parts[big] = parts[big][:last]
	}
	return parts
}

// refRebalance moves destinations from oversized to undersized subsets until
// sizes differ by at most one, preferring to keep locality by moving from
// the tail.
func refRebalance(parts [][]graph.NodeID, rng *rand.Rand) [][]graph.NodeID {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	k := len(parts)
	lo, hi := total/k, (total+k-1)/k
	for {
		over, under := -1, -1
		for i := range parts {
			if len(parts[i]) > hi && (over < 0 || len(parts[i]) > len(parts[over])) {
				over = i
			}
			if len(parts[i]) < lo && (under < 0 || len(parts[i]) < len(parts[under])) {
				under = i
			}
		}
		if over < 0 || under < 0 {
			break
		}
		last := len(parts[over]) - 1
		parts[under] = append(parts[under], parts[over][last])
		parts[over] = parts[over][:last]
	}
	return refFixEmpty(parts)
}

// refCoarseGraph is a weighted multilevel working graph over switch indices.
type refCoarseGraph struct {
	n      int
	adj    [][]refEdgeW // adjacency with edge weights
	vw     []int        // vertex weights (number of fine vertices)
	fineTo []int        // mapping fine vertex -> coarse vertex (nil at finest)
	finer  *refCoarseGraph
}

type refEdgeW struct {
	to int
	w  int
}

// refBuildSwitchGraph builds the finest-level working graph: one vertex per
// switch, one weighted edge per duplex switch link (parallels merged into
// weight).
func refBuildSwitchGraph(g *graph.Network, switches []graph.NodeID) *refCoarseGraph {
	idx := make(map[graph.NodeID]int, len(switches))
	for i, s := range switches {
		idx[s] = i
	}
	cg := &refCoarseGraph{n: len(switches), adj: make([][]refEdgeW, len(switches)), vw: make([]int, len(switches))}
	for i := range cg.vw {
		cg.vw[i] = 1
	}
	rows := make([][]refEdgeW, len(switches))
	for _, s := range switches {
		for _, c := range g.Out(s) {
			t := g.Channel(c).To
			j, ok := idx[t]
			if !ok {
				continue // terminal
			}
			i := idx[s]
			if i < j {
				rows[i] = append(rows[i], refEdgeW{j, 1})
			}
		}
	}
	refMergeSymmetric(rows, cg.adj)
	return cg
}

// refMergeSymmetric folds per-vertex edge buckets (entries (b, w) with b > a
// on row a, possibly repeated) into a symmetric weighted adjacency with
// parallels merged, without the map the previous implementation allocated
// per build. Rows end up sorted by neighbor ID.
func refMergeSymmetric(rows, adj [][]refEdgeW) {
	for a, list := range rows {
		if len(list) == 0 {
			continue
		}
		sort.Slice(list, func(i, j int) bool { return list[i].to < list[j].to })
		for i := 0; i < len(list); {
			b, w := list[i].to, 0
			for ; i < len(list) && list[i].to == b; i++ {
				w += list[i].w
			}
			adj[a] = append(adj[a], refEdgeW{b, w})
			adj[b] = append(adj[b], refEdgeW{a, w})
		}
	}
	for i := range adj {
		sort.Slice(adj[i], func(a, b int) bool { return adj[i][a].to < adj[i][b].to })
	}
}

// coarsen performs one level of heavy-edge matching. Returns nil when the
// graph barely shrinks (time to stop).
func (cg *refCoarseGraph) coarsen(rng *rand.Rand) *refCoarseGraph {
	match := make([]int, cg.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(cg.n)
	coarseID := make([]int, cg.n)
	nc := 0
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		// Heaviest unmatched neighbor.
		best, bestW := -1, -1
		for _, e := range cg.adj[v] {
			if match[e.to] < 0 && e.to != v && e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
			coarseID[v] = nc
			coarseID[best] = nc
		} else {
			match[v] = v
			coarseID[v] = nc
		}
		nc++
	}
	if nc > cg.n*9/10 {
		return nil
	}
	nxt := &refCoarseGraph{n: nc, adj: make([][]refEdgeW, nc), vw: make([]int, nc), fineTo: coarseID, finer: cg}
	for v := 0; v < cg.n; v++ {
		nxt.vw[coarseID[v]] += cg.vw[v]
	}
	rows := make([][]refEdgeW, nc)
	for v := 0; v < cg.n; v++ {
		for _, e := range cg.adj[v] {
			a, b := coarseID[v], coarseID[e.to]
			if a < b {
				rows[a] = append(rows[a], refEdgeW{b, e.w})
			}
		}
	}
	refMergeSymmetric(rows, nxt.adj)
	return nxt
}

// partition runs the full multilevel cycle and returns a partition ID per
// finest-level vertex.
func (cg *refCoarseGraph) partition(k int, rng *rand.Rand) []int {
	// Coarsening phase.
	cur := cg
	for cur.n > 8*k {
		nxt := cur.coarsen(rng)
		if nxt == nil {
			break
		}
		cur = nxt
	}
	part := cur.initialPartition(k, rng)
	cur.refine(part, k)
	// Uncoarsening with refinement.
	for cur.finer != nil {
		fine := cur.finer
		fpart := make([]int, fine.n)
		for v := 0; v < fine.n; v++ {
			fpart[v] = part[cur.fineTo[v]]
		}
		fine.refine(fpart, k)
		cur, part = fine, fpart
	}
	return part
}

// initialPartition grows k regions by BFS from spread seeds, weighted by
// vertex weight.
func (cg *refCoarseGraph) initialPartition(k int, rng *rand.Rand) []int {
	part := make([]int, cg.n)
	for i := range part {
		part[i] = -1
	}
	totalW := 0
	for _, w := range cg.vw {
		totalW += w
	}
	target := (totalW + k - 1) / k
	// Seeds: farthest-point style from a random start.
	seeds := make([]int, 0, k)
	seeds = append(seeds, rng.Intn(cg.n))
	distAll := make([]int, cg.n)
	for i := range distAll {
		distAll[i] = 1 << 30
	}
	bfsUpdate := func(s int) {
		d := make([]int, cg.n)
		for i := range d {
			d[i] = -1
		}
		q := []int{s}
		d[s] = 0
		for h := 0; h < len(q); h++ {
			u := q[h]
			for _, e := range cg.adj[u] {
				if d[e.to] < 0 {
					d[e.to] = d[u] + 1
					q = append(q, e.to)
				}
			}
		}
		for i := range distAll {
			if d[i] >= 0 && d[i] < distAll[i] {
				distAll[i] = d[i]
			}
		}
	}
	bfsUpdate(seeds[0])
	for len(seeds) < k {
		far := 0
		for i := 1; i < cg.n; i++ {
			if distAll[i] > distAll[far] {
				far = i
			}
		}
		seeds = append(seeds, far)
		bfsUpdate(far)
	}
	// Round-robin BFS growth until all vertices assigned.
	queues := make([][]int, k)
	load := make([]int, k)
	for p, s := range seeds {
		if part[s] < 0 {
			part[s] = p
			load[p] = cg.vw[s]
			queues[p] = append(queues[p], s)
		}
	}
	progress := true
	for progress {
		progress = false
		for p := 0; p < k; p++ {
			if load[p] > target {
				continue
			}
			for len(queues[p]) > 0 {
				u := queues[p][0]
				queues[p] = queues[p][1:]
				grew := false
				for _, e := range cg.adj[u] {
					if part[e.to] < 0 {
						part[e.to] = p
						load[p] += cg.vw[e.to]
						queues[p] = append(queues[p], e.to)
						grew = true
						progress = true
						break
					}
				}
				if grew {
					queues[p] = append(queues[p], u)
					break
				}
			}
		}
	}
	// Leftovers (disconnected vertices): least-loaded part.
	for v := 0; v < cg.n; v++ {
		if part[v] < 0 {
			best := 0
			for p := 1; p < k; p++ {
				if load[p] < load[best] {
					best = p
				}
			}
			part[v] = best
			load[best] += cg.vw[v]
		}
	}
	return part
}

// refine greedily moves boundary vertices to the neighboring part with the
// largest edge-cut gain, subject to a 1.3x balance constraint. A few
// passes suffice for the simplified scheme.
func (cg *refCoarseGraph) refine(part []int, k int) {
	totalW := 0
	for _, w := range cg.vw {
		totalW += w
	}
	maxLoad := totalW*13/(10*k) + 1
	load := make([]int, k)
	for v := 0; v < cg.n; v++ {
		load[part[v]] += cg.vw[v]
	}
	conn := make([]int, k)
	for pass := 0; pass < 4; pass++ {
		moved := false
		for v := 0; v < cg.n; v++ {
			for p := range conn {
				conn[p] = 0
			}
			for _, e := range cg.adj[v] {
				conn[part[e.to]] += e.w
			}
			cp := part[v]
			best, bestGain := cp, 0
			for p := 0; p < k; p++ {
				if p == cp || load[p]+cg.vw[v] > maxLoad {
					continue
				}
				if gain := conn[p] - conn[cp]; gain > bestGain {
					best, bestGain = p, gain
				}
			}
			if best != cp && load[cp]-cg.vw[v] > 0 {
				load[cp] -= cg.vw[v]
				load[best] += cg.vw[v]
				part[v] = best
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}
