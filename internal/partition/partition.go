// Package partition provides the destination-partitioning strategies of
// Nue routing (§4.5): a simplified multilevel k-way partitioner in the
// spirit of Karypis/Kumar and a random partitioner. Partitions split a destination set into
// k disjoint, balanced, non-empty subsets; each subset becomes the
// destination set of one virtual layer.
package partition

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/freelist"
	"repro/internal/graph"
)

// Strategy names a partitioning algorithm.
type Strategy string

const (
	// MultilevelKWay coarsens the network, grows k regions and refines
	// boundaries; the default and best-performing strategy in the paper.
	MultilevelKWay Strategy = "kway"
	// Random assigns destinations to subsets uniformly at random.
	Random Strategy = "random"
)

// Split partitions dests into k subsets using the given strategy. Every
// subset is non-empty provided k <= len(dests); subset sizes differ by at
// most one. The rng drives tie-breaking and must be non-nil. A k below 1,
// an empty dests and an unknown strategy are errors.
func Split(g *graph.Network, dests []graph.NodeID, k int, s Strategy, rng *rand.Rand) ([][]graph.NodeID, error) {
	switch s {
	case Random, MultilevelKWay:
	default:
		return nil, fmt.Errorf("partition: unknown strategy %q", s)
	}
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be at least 1, have %d", k)
	}
	if len(dests) == 0 {
		return nil, errors.New("partition: no destinations")
	}
	k = min(k, len(dests))
	if k == 1 {
		return [][]graph.NodeID{append([]graph.NodeID(nil), dests...)}, nil
	}
	if s == Random {
		return randomSplit(dests, k, rng), nil
	}
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	return ws.kwaySplit(g, dests, k, rng), nil
}

func randomSplit(dests []graph.NodeID, k int, rng *rand.Rand) [][]graph.NodeID {
	perm := rng.Perm(len(dests))
	parts := make([][]graph.NodeID, k)
	for i, p := range perm {
		parts[i%k] = append(parts[i%k], dests[p])
	}
	return parts
}

// kwaySplit implements a simplified multilevel k-way partitioning of the
// network restricted to switches: coarsen by randomized heavy-edge
// matching, grow k balanced regions on the coarsest graph, refine the
// boundary greedily while projecting back, then map destinations to the
// partition of their attachment switch and rebalance destination counts.
func (ws *workspace) kwaySplit(g *graph.Network, dests []graph.NodeID, k int, rng *rand.Rand) [][]graph.NodeID {
	csr := g.CSRView()
	ws.index = freelist.Grow(ws.index, g.NumNodes())
	switches := int32(0)
	for v := range ws.index {
		ws.index[v] = -1
		if g.IsSwitch(graph.NodeID(v)) {
			ws.index[v] = switches
			switches++
		}
	}
	if switches == 0 {
		return randomSplit(dests, k, rng)
	}
	ws.buildSwitchGraph(csr, int(switches))
	part := ws.partition(k, rng)

	sets := ws.sets.reset(k)
	for _, d := range dests {
		sw := d
		if g.IsTerminal(d) && g.Degree(d) > 0 {
			sw = g.TerminalSwitch(d)
		}
		var p int
		if i := ws.index[sw]; i >= 0 {
			p = int(part[i])
		} else {
			p = rng.Intn(k)
		}
		sets.push(p, d)
	}
	sets.rebalance()
	return sets.parts()
}

// workspace is the scratch of one Split: the graphs of the multilevel
// cycle and the matching, search and growth state of the k-way
// partitioner, and the subsets being formed. Arrays are regrown to a
// call's sizes and never shrunk, so a warm Split allocates only the
// subsets it returns.
type workspace struct {
	index   []int32  // NodeID -> index among the switches, -1 for other nodes
	levels  []*level // levels[0] is the switch graph, each next one coarser
	pairs   []pair   // the edges of the level being built
	cursor  []int32  // next free slot per row while a level is built
	members []int32  // per coarse vertex its one or two fine vertices, -1 padded
	match   []int32
	perm    []int32
	part    []int32 // part per vertex of the level being refined
	fpart   []int32 // the same, projected onto the next finer level
	load    []int
	conn    []int
	dist    []int32
	distAll []int32
	bfs     []int32
	seeds   []int32
	queues  fifos
	sets    subsets
}

// workspaces recycles the scratch of Split calls.
var workspaces freelist.List[workspace]

func fill[T any](s []T, v T) []T {
	for i := range s {
		s[i] = v
	}
	return s
}

// level is one weighted graph of the multilevel cycle in CSR form. Row v,
// edges[off[v]:off[v+1]], lists v's neighbours ascending, parallel links
// merged into one edge carrying their summed weight.
type level struct {
	n      int
	off    []int32
	edges  []edge
	vw     []int   // vertex weights (number of switches merged)
	fineTo []int32 // vertex of the next finer level -> vertex of this one
}

type edge struct{ to, w int32 }

// pair is an edge {a, b} with a < b, or one of several parallel ones.
type pair struct{ a, b, w int32 }

func (lv *level) row(v int32) []edge { return lv.edges[lv.off[v]:lv.off[v+1]] }

// level returns levels[i], adding it if the workspace has never gone
// that deep.
func (ws *workspace) level(i int) *level {
	for len(ws.levels) <= i {
		ws.levels = append(ws.levels, new(level))
	}
	return ws.levels[i]
}

// buildSwitchGraph builds level 0: one vertex per switch, one edge per
// pair of linked switches, weighted by the number of links between them
// (counted from the lower index's out-channels).
func (ws *workspace) buildSwitchGraph(csr *graph.CSR, switches int) {
	pairs := ws.pairs[:0]
	for v, a := range ws.index {
		if a < 0 {
			continue
		}
		for _, c := range csr.Out(graph.NodeID(v)) {
			if b := ws.index[csr.To[c]]; a < b {
				pairs = append(pairs, pair{a, b, 1})
			}
		}
	}
	ws.pairs = pairs
	lv := ws.level(0)
	lv.vw = fill(freelist.Grow(lv.vw, switches), 1)
	ws.buildRows(lv, switches)
}

// buildRows builds lv's n rows from ws.pairs, which must come grouped by
// their low end a in ascending order. Row b first receives its lower
// neighbours a in pair order, hence ascending; then, for b ascending,
// every lower entry a of row b is mirrored into row a, which so receives
// its upper neighbours ascending. Parallel entries end up adjacent and
// are merged.
func (ws *workspace) buildRows(lv *level, n int) {
	lv.n = n
	off := freelist.Grow(lv.off, n+1)
	clear(off)
	for _, p := range ws.pairs {
		off[p.a+1]++
		off[p.b+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	edges := freelist.Grow(lv.edges, int(off[n]))
	next := freelist.Grow(ws.cursor, n)
	copy(next, off)
	for _, p := range ws.pairs {
		edges[next[p.b]] = edge{p.a, p.w}
		next[p.b]++
	}
	for b := range next {
		// Row b has its lower entries only: rows above b are mirrored later.
		for _, e := range edges[off[b]:next[b]] {
			edges[next[e.to]] = edge{int32(b), e.w}
			next[e.to]++
		}
	}
	w := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		off[v] = w
		for _, e := range edges[lo:hi] {
			if w > off[v] && edges[w-1].to == e.to {
				edges[w-1].w += e.w
				continue
			}
			edges[w] = e
			w++
		}
	}
	off[n] = w
	lv.off, lv.edges, ws.cursor = off, edges, next
}

// permute is rng.Perm(n) written into the workspace: math/rand's own loop,
// so it draws what Perm draws and returns the same permutation.
func (ws *workspace) permute(n int, rng *rand.Rand) []int32 {
	m := freelist.Grow(ws.perm, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = int32(i)
	}
	ws.perm = m
	return m
}

// coarsen performs one level of heavy-edge matching on levels[i] and
// builds levels[i+1] from it. It reports false, leaving levels[i] the
// coarsest, when the graph barely shrinks (time to stop).
func (ws *workspace) coarsen(i int, rng *rand.Rand) bool {
	crs := ws.level(i + 1)
	fine := ws.levels[i]
	n := fine.n
	match := fill(freelist.Grow(ws.match, n), -1)
	coarseID := freelist.Grow(crs.fineTo, n)
	members := freelist.Grow(ws.members, 2*n)
	ws.match, crs.fineTo, ws.members = match, coarseID, members
	nc := int32(0)
	for _, v := range ws.permute(n, rng) {
		if match[v] >= 0 {
			continue
		}
		// Heaviest unmatched neighbor.
		best, bestW := int32(-1), int32(-1)
		for _, e := range fine.row(v) {
			if match[e.to] < 0 && e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
			coarseID[best] = nc
		} else {
			match[v] = v
		}
		coarseID[v] = nc
		members[2*nc], members[2*nc+1] = v, best
		nc++
	}
	if int(nc) > n*9/10 {
		return false
	}
	crs.vw = freelist.Grow(crs.vw, int(nc))
	clear(crs.vw)
	for v := 0; v < n; v++ {
		crs.vw[coarseID[v]] += fine.vw[v]
	}
	pairs := ws.pairs[:0]
	for a := int32(0); a < nc; a++ {
		for _, v := range members[2*a : 2*a+2] {
			if v < 0 {
				continue
			}
			for _, e := range fine.row(v) {
				if b := coarseID[e.to]; a < b {
					pairs = append(pairs, pair{a, b, e.w})
				}
			}
		}
	}
	ws.pairs = pairs
	ws.buildRows(crs, int(nc))
	return true
}

// partition runs the full multilevel cycle on levels[0] and returns a
// partition ID per switch.
func (ws *workspace) partition(k int, rng *rand.Rand) []int32 {
	// Coarsening phase.
	top := 0
	for ws.levels[top].n > 8*k && ws.coarsen(top, rng) {
		top++
	}
	part := ws.initialPartition(ws.levels[top], k, rng)
	ws.refine(ws.levels[top], part, k)
	// Uncoarsening with refinement.
	for ; top > 0; top-- {
		cur, fine := ws.levels[top], ws.levels[top-1]
		fpart := freelist.Grow(ws.fpart, fine.n)
		for v := range fpart {
			fpart[v] = part[cur.fineTo[v]]
		}
		ws.refine(fine, fpart, k)
		ws.part, ws.fpart = fpart, part
		part = fpart
	}
	return part
}

// initialPartition grows k regions by BFS from spread seeds, weighted by
// vertex weight, into ws.part.
func (ws *workspace) initialPartition(lv *level, k int, rng *rand.Rand) []int32 {
	n := lv.n
	part := fill(freelist.Grow(ws.part, n), -1)
	ws.part = part
	totalW := 0
	for _, w := range lv.vw {
		totalW += w
	}
	target := (totalW + k - 1) / k
	// Seeds: farthest-point style from a random start.
	seeds := append(ws.seeds[:0], int32(rng.Intn(n)))
	distAll := fill(freelist.Grow(ws.distAll, n), 1<<30)
	ws.distAll = distAll
	ws.bfsMin(lv, seeds[0])
	for len(seeds) < k {
		far := 0
		for i := 1; i < n; i++ {
			if distAll[i] > distAll[far] {
				far = i
			}
		}
		seeds = append(seeds, int32(far))
		ws.bfsMin(lv, int32(far))
	}
	ws.seeds = seeds
	// Round-robin BFS growth until all vertices assigned.
	queues := ws.queues.reset(k)
	load := freelist.Grow(ws.load, k)
	clear(load)
	ws.load = load
	for p, s := range seeds {
		if part[s] < 0 {
			part[s] = int32(p)
			load[p] = lv.vw[s]
			queues.push(p, s)
		}
	}
	progress := true
	for progress {
		progress = false
		for p := 0; p < k; p++ {
			if load[p] > target {
				continue
			}
			for !queues.empty(p) {
				u := queues.pop(p)
				grew := false
				for _, e := range lv.row(u) {
					if part[e.to] < 0 {
						part[e.to] = int32(p)
						load[p] += lv.vw[e.to]
						queues.push(p, e.to)
						grew = true
						progress = true
						break
					}
				}
				if grew {
					queues.push(p, u)
					break
				}
			}
		}
	}
	// Leftovers (disconnected vertices): least-loaded part.
	for v := 0; v < n; v++ {
		if part[v] < 0 {
			best := 0
			for p := 1; p < k; p++ {
				if load[p] < load[best] {
					best = p
				}
			}
			part[v] = int32(best)
			load[best] += lv.vw[v]
		}
	}
	return part
}

// bfsMin lowers ws.distAll to the hop distances from s.
func (ws *workspace) bfsMin(lv *level, s int32) {
	d := fill(freelist.Grow(ws.dist, lv.n), -1)
	q := append(freelist.Grow(ws.bfs, lv.n)[:0], s)
	d[s] = 0
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, e := range lv.row(u) {
			if d[e.to] < 0 {
				d[e.to] = d[u] + 1
				q = append(q, e.to)
			}
		}
	}
	for i, di := range d {
		if di >= 0 && di < ws.distAll[i] {
			ws.distAll[i] = di
		}
	}
	ws.dist, ws.bfs = d, q
}

// refine greedily moves boundary vertices to the neighboring part with the
// largest edge-cut gain, subject to a 1.3x balance constraint. A few
// passes suffice for the simplified scheme.
func (ws *workspace) refine(lv *level, part []int32, k int) {
	totalW := 0
	for _, w := range lv.vw {
		totalW += w
	}
	maxLoad := totalW*13/(10*k) + 1
	load, conn := freelist.Grow(ws.load, k), freelist.Grow(ws.conn, k)
	ws.load, ws.conn = load, conn
	clear(load)
	for v := 0; v < lv.n; v++ {
		load[part[v]] += lv.vw[v]
	}
	for pass := 0; pass < 4; pass++ {
		moved := false
		for v := int32(0); v < int32(lv.n); v++ {
			clear(conn)
			for _, e := range lv.row(v) {
				conn[part[e.to]] += int(e.w)
			}
			cp, vw := int(part[v]), lv.vw[v]
			best, bestGain := cp, 0
			for p := 0; p < k; p++ {
				if p == cp || load[p]+vw > maxLoad {
					continue
				}
				if gain := conn[p] - conn[cp]; gain > bestGain {
					best, bestGain = p, gain
				}
			}
			if best != cp && load[cp]-vw > 0 {
				load[cp] -= vw
				load[best] += vw
				part[v] = int32(best)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// fifos is one FIFO queue per part; a queue's popped entries stay in its
// slice until the next reset.
type fifos struct {
	queue [][]int32
	head  []int
}

func (q *fifos) reset(k int) *fifos {
	q.queue, q.head = freelist.Grow(q.queue, k), freelist.Grow(q.head, k)
	for p := range q.queue {
		q.queue[p], q.head[p] = q.queue[p][:0], 0
	}
	return q
}

func (q *fifos) empty(p int) bool { return q.head[p] == len(q.queue[p]) }

func (q *fifos) push(p int, v int32) { q.queue[p] = append(q.queue[p], v) }

func (q *fifos) pop(p int) int32 {
	q.head[p]++
	return q.queue[p][q.head[p]-1]
}

// subsets holds the k subsets being formed. Rebalancing and filling empty
// subsets only ever move the last destination of one subset to the end
// of another.
type subsets struct {
	set [][]graph.NodeID
}

func (s *subsets) reset(k int) *subsets {
	s.set = freelist.Grow(s.set, k)
	for p := range s.set {
		s.set[p] = s.set[p][:0]
	}
	return s
}

func (s *subsets) push(p int, d graph.NodeID) { s.set[p] = append(s.set[p], d) }

func (s *subsets) pop(p int) graph.NodeID {
	last := len(s.set[p]) - 1
	d := s.set[p][last]
	s.set[p] = s.set[p][:last]
	return d
}

// parts copies the subsets out, in one allocation for all of them and one
// for the list; an empty subset is nil.
func (s *subsets) parts() [][]graph.NodeID {
	total := 0
	for _, set := range s.set {
		total += len(set)
	}
	all := make([]graph.NodeID, 0, total)
	out := make([][]graph.NodeID, len(s.set))
	for p, set := range s.set {
		if len(set) > 0 {
			all = append(all, set...)
			out[p] = all[len(all)-len(set) : len(all) : len(all)]
		}
	}
	return out
}

// fixEmpty steals single elements from the largest subsets so that no
// subset is empty.
func (s *subsets) fixEmpty() {
	for i := range s.set {
		if len(s.set[i]) > 0 {
			continue
		}
		big := -1
		for j, set := range s.set {
			if big < 0 || len(set) > len(s.set[big]) {
				big = j
			}
		}
		if len(s.set[big]) <= 1 {
			continue // cannot steal without emptying another subset
		}
		s.push(i, s.pop(big))
	}
}

// rebalance moves destinations from oversized to undersized subsets until
// sizes differ by at most one, preferring to keep locality by moving from
// the tail, then fills empty subsets.
func (s *subsets) rebalance() {
	total := 0
	for _, set := range s.set {
		total += len(set)
	}
	k := len(s.set)
	lo, hi := total/k, (total+k-1)/k
	for {
		over, under := -1, -1
		for i, set := range s.set {
			if n := len(set); n > hi && (over < 0 || n > len(s.set[over])) {
				over = i
			}
			if n := len(set); n < lo && (under < 0 || n < len(s.set[under])) {
				under = i
			}
		}
		if over < 0 || under < 0 {
			break
		}
		s.push(under, s.pop(over))
	}
	s.fixEmpty()
}
