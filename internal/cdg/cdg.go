// Package cdg implements the complete channel dependency graph (complete
// CDG, Definition 6 of the Nue paper) together with the ω-numbering of
// acyclic used subgraphs and the cycle search of Algorithm 3.
//
// Vertices of the complete CDG are the directed channels of one virtual
// layer; a directed edge (c_p, c_q) exists for every pair of adjacent
// channels c_p = (x,y), c_q = (y,z) with x != z (no u-turns, not even over
// parallel channels). Vertices and edges carry the states of §4.1:
//
//	unused  — not part of any routing so far (ω = 0)
//	used    — induced by escape paths or by routes (ω >= 1, the ID of the
//	          acyclic used subgraph the element belongs to)
//	blocked — edges only: using the edge would close a cycle (ω = -1)
//
// Orientation convention: Nue's modified Dijkstra (Algorithm 1) starts at
// the *destination* node and expands along channel directions; the
// recorded dependency (c_p, c_q) therefore corresponds to real traffic
// flowing (rev(c_q), rev(c_p)) toward the destination. Channel reversal is
// an isomorphism of the complete CDG, so acyclicity transfers; escape-path
// marking below uses the same recorded orientation (see DESIGN.md §6).
package cdg

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/graph"
)

// State classifies a vertex or edge of the complete CDG.
type State int8

const (
	// Unused elements are not part of any routing yet.
	Unused State = iota
	// Used elements belong to an acyclic used subgraph.
	Used
	// Blocked edges would close a cycle; they are permanently forbidden.
	Blocked
)

func (s State) String() string {
	switch s {
	case Unused:
		return "unused"
	case Used:
		return "used"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("State(%d)", int8(s))
	}
}

const (
	omegaBlocked int32 = -1
	omegaUnused  int32 = 0
)

// Graph is the complete CDG of one virtual layer, including mutable
// ω-state. It is not safe for concurrent use.
type Graph struct {
	net *graph.Network

	// CSR adjacency over channels: successors of channel c are
	// succ[start[c]:start[c+1]]. Edge IDs are indices into succ.
	start []int32
	succ  []graph.ChannelID

	chOmega []int32 // per channel: 0 unused, >=1 subgraph id
	edOmega []int32 // per edge: -1 blocked, 0 unused, >=1 subgraph id

	// Used-edge adjacency: a linked list per channel over the edges that
	// entered the used state, so the cycle search of condition (d) walks
	// only used edges instead of filtering ALL successors. usedHead[c] is
	// the first list cell of channel c (-1 empty); cell i continues at
	// usedNext[i] and targets channel usedTo[i]. Append-only except for
	// the naive engine's mark-then-revert, which pops the head it pushed.
	usedHead []int32
	usedNext []int32
	usedTo   []graph.ChannelID

	// lvl is an incremental pseudo-topological leveling of the used
	// subgraph (Katriel & Bodlaender's online topological ordering):
	// every used edge (u,v) keeps lvl[u] < lvl[v]. A condition-(d)
	// insertion that already agrees with the levels is an O(1) accept —
	// reachability cq -> cp would force lvl[cq] < lvl[cp] — and a
	// disagreeing one runs a reachability probe restricted to the level
	// window, then lifts downstream levels. Levels only ever grow. The
	// naive ablation engine never consults or maintains them.
	lvl []int32

	// Union-find over subgraph IDs (index 0 unused).
	dsuParent []int32
	dsuSize   []int32

	// Search scratch. epoch persists across arena reuse so visited never
	// needs clearing: stale entries hold strictly older epochs.
	visited []int32
	epoch   int32
	stack   []graph.ChannelID
	indeg   []int32 // UsedAcyclic's in-degrees; stack is its queue

	// MarkEscapePaths' per-node scratch: which nodes are destinations,
	// and the destinations in each node's subtree.
	isDest  []bool
	destCnt []int32

	// Stats for ablation/benchmarks/telemetry.
	CycleSearches int // number of depth-first searches performed
	EdgesBlocked  int // edges transitioned to blocked
	Merges        int // subgraph unions
	EdgeUses      int // TryUseEdgeByID attempts (conditions (a)-(d) evaluated)

	// Naive disables the ω-numbering optimization of §4.6.1: every edge
	// use runs a full acyclicity check instead of the condition (a)-(d)
	// shortcuts. Semantically identical, asymptotically slower; exists
	// for the ablation benchmarks.
	Naive bool
}

// arenas recycles Graphs between layers and repair attempts: the per-layer
// complete CDG is by far the largest transient allocation of a routing
// run (O(|C| + |CDG edges|) across ~10 slices), and fabric repairs
// rebuild it per attempt. Releasing a Graph back here makes the rebuild
// allocation-free once the arena has warmed up.
var arenas freelist.List[Graph]

// NewComplete builds the complete CDG of one virtual layer of net,
// Definition 6. Failed channels get no adjacency (they are unreachable
// vertices). The Graph is drawn from an internal arena free list; callers
// on hot paths should hand it back with Release when done.
func NewComplete(net *graph.Network) *Graph {
	nc := net.NumChannels()
	csr := net.CSRView()
	g := arenas.Get()
	g.net = net
	g.start = freelist.Grow(g.start, nc+1)
	g.chOmega = freelist.Grow(g.chOmega, nc)
	clear(g.chOmega)
	g.usedHead = freelist.Grow(g.usedHead, nc)
	for i := range g.usedHead {
		g.usedHead[i] = -1
	}
	g.usedNext = g.usedNext[:0]
	g.usedTo = g.usedTo[:0]
	g.lvl = freelist.Grow(g.lvl, nc)
	clear(g.lvl)
	// visited carries stale epochs from previous uses; epoch strictly
	// increases across reuse, so stale entries can never match. Only a
	// grown region needs defined values (Grow's fresh arrays are zero).
	if cap(g.visited) < nc {
		g.visited = make([]int32, nc)
		g.epoch = 0
	} else {
		g.visited = g.visited[:nc]
	}
	g.dsuParent = append(g.dsuParent[:0], 0)
	g.dsuSize = append(g.dsuSize[:0], 0)
	g.stack = g.stack[:0]
	g.CycleSearches, g.EdgesBlocked, g.Merges, g.EdgeUses = 0, 0, 0, 0
	g.Naive = false

	// Count successors first.
	g.start[0] = 0
	total := 0
	for c := 0; c < nc; c++ {
		if csr.Failed[c] {
			g.start[c+1] = g.start[c]
			continue
		}
		from := csr.From[c]
		cnt := 0
		for _, nxt := range csr.Out(csr.To[c]) {
			if csr.To[nxt] != from {
				cnt++
			}
		}
		g.start[c+1] = g.start[c] + int32(cnt)
		total += cnt
	}
	if cap(g.succ) < total {
		g.succ = make([]graph.ChannelID, 0, total)
	} else {
		g.succ = g.succ[:0]
	}
	for c := 0; c < nc; c++ {
		if csr.Failed[c] {
			continue
		}
		from := csr.From[c]
		for _, nxt := range csr.Out(csr.To[c]) {
			if csr.To[nxt] != from {
				g.succ = append(g.succ, nxt)
			}
		}
	}
	g.edOmega = freelist.Grow(g.edOmega, len(g.succ))
	clear(g.edOmega)
	return g
}

// Release hands the Graph's arenas back to the free list for reuse by
// the next NewComplete. The Graph must not be used afterwards. Callers
// that retain a CDG beyond the routing run (e.g. for inspection) simply
// skip Release and let the garbage collector take it.
func (g *Graph) Release() {
	g.net = nil
	arenas.Put(g)
}

// NumEdges returns the number of edges of the complete CDG.
func (g *Graph) NumEdges() int { return len(g.succ) }

// Succ returns the successor channels of c. The slice must not be
// modified. Edge IDs for (c, Succ(c)[i]) are int(start[c]) + i.
func (g *Graph) Succ(c graph.ChannelID) []graph.ChannelID {
	return g.succ[g.start[c]:g.start[c+1]]
}

// SuccBase returns the edge ID of the first successor edge of c; edge
// (c, Succ(c)[i]) has ID SuccBase(c)+i.
func (g *Graph) SuccBase(c graph.ChannelID) int32 { return g.start[c] }

// EdgeID returns the edge identifier of (cp, cq), or -1 if the edge does
// not exist in the complete CDG.
func (g *Graph) EdgeID(cp, cq graph.ChannelID) int32 {
	for i := g.start[cp]; i < g.start[cp+1]; i++ {
		if g.succ[i] == cq {
			return i
		}
	}
	return -1
}

// EdgeState returns the state of edge e.
func (g *Graph) EdgeState(e int32) State {
	switch w := g.edOmega[e]; {
	case w == omegaBlocked:
		return Blocked
	case w == omegaUnused:
		return Unused
	default:
		return Used
	}
}

// ChannelState returns the state of channel vertex c.
func (g *Graph) ChannelState(c graph.ChannelID) State {
	if g.chOmega[c] == omegaUnused {
		return Unused
	}
	return Used
}

// newGroup allocates a fresh subgraph identifier.
func (g *Graph) newGroup() int32 {
	id := int32(len(g.dsuParent))
	g.dsuParent = append(g.dsuParent, id)
	g.dsuSize = append(g.dsuSize, 1)
	return id
}

// find returns the canonical representative of group id (path halving).
func (g *Graph) find(id int32) int32 {
	for g.dsuParent[id] != id {
		g.dsuParent[id] = g.dsuParent[g.dsuParent[id]]
		id = g.dsuParent[id]
	}
	return id
}

// union merges the groups of a and b and returns the representative.
func (g *Graph) union(a, b int32) int32 {
	ra, rb := g.find(a), g.find(b)
	if ra == rb {
		return ra
	}
	if g.dsuSize[ra] < g.dsuSize[rb] {
		ra, rb = rb, ra
	}
	g.dsuParent[rb] = ra
	g.dsuSize[ra] += g.dsuSize[rb]
	g.Merges++
	return ra
}

// markEdgeUsed records (cp, cq) in the used-edge adjacency. Must be
// called exactly once per edge transitioning into the used state, at
// every site that writes a positive edOmega.
func (g *Graph) markEdgeUsed(cp, cq graph.ChannelID) {
	g.usedNext = append(g.usedNext, g.usedHead[cp])
	g.usedTo = append(g.usedTo, cq)
	g.usedHead[cp] = int32(len(g.usedTo) - 1)
}

// SeedChannel puts channel c into the used state. If it was unused it
// becomes its own fresh acyclic subgraph (the start of a new routing
// step, cf. Fig. 6a). The group id is returned.
func (g *Graph) SeedChannel(c graph.ChannelID) int32 {
	if g.chOmega[c] == omegaUnused {
		g.chOmega[c] = g.newGroup()
	}
	return g.find(g.chOmega[c])
}

// TryUseEdgeByID implements Algorithm 3 for the edge e = (cp, cq) (see
// EdgeID): it reports whether the edge can be used without closing a
// cycle in the used subgraph of the complete CDG, marking it used on
// success and blocked on failure. cp must already be used (Algorithm 1
// only expands settled channels).
func (g *Graph) TryUseEdgeByID(e int32, cp, cq graph.ChannelID) bool {
	g.EdgeUses++
	switch w := g.edOmega[e]; {
	case w == omegaBlocked:
		// Condition (a): known to close a cycle.
		return false
	case w >= 1:
		// Condition (b): already used, part of an acyclic subgraph.
		return true
	}
	if g.Naive {
		return g.tryUseEdgeNaive(e, cp, cq)
	}
	gp := g.chOmega[cp]
	if gp == omegaUnused {
		panic("cdg: TryUseEdgeByID from unused channel")
	}
	gp = g.find(gp)
	gq := g.chOmega[cq]
	if gq == omegaUnused {
		// Condition (c), trivial case: cq joins cp's subgraph. No cycle
		// is possible, but the topological order still has to absorb the
		// new edge.
		g.chOmega[cq] = gp
		g.edOmega[e] = gp
		g.mustAddEdge(cp, cq)
		return true
	}
	gq = g.find(gq)
	if gp != gq {
		// Condition (c): the edge connects two disjoint acyclic
		// subgraphs; merging them cannot close a cycle.
		r := g.union(gp, gq)
		g.edOmega[e] = r
		g.mustAddEdge(cp, cq)
		return true
	}
	// Condition (d): both endpoints in the same subgraph; this is the one
	// case Algorithm 3 resolves with a cycle search. The incremental
	// topological order answers it — often in O(1), when the candidate
	// edge already agrees with the current leveling.
	g.CycleSearches++
	if !g.addEdgeChecked(cp, cq) {
		g.edOmega[e] = omegaBlocked
		g.EdgesBlocked++
		return false
	}
	g.edOmega[e] = gp
	return true
}

// tryUseEdgeNaive marks the edge used and verifies acyclicity with a full
// Kahn pass, reverting on failure (the baseline §4.6.1 compares against).
func (g *Graph) tryUseEdgeNaive(e int32, cp, cq graph.ChannelID) bool {
	gp := g.chOmega[cp]
	if gp == omegaUnused {
		panic("cdg: TryUseEdgeByID from unused channel")
	}
	gp = g.find(gp)
	prevQ := g.chOmega[cq]
	if prevQ == omegaUnused {
		g.chOmega[cq] = gp
	} else {
		g.union(gp, g.find(prevQ))
	}
	g.edOmega[e] = gp
	g.markEdgeUsed(cp, cq)
	g.CycleSearches++
	if g.UsedAcyclic() {
		return true
	}
	g.edOmega[e] = omegaBlocked
	g.EdgesBlocked++
	if prevQ == omegaUnused {
		g.chOmega[cq] = omegaUnused
	}
	// Pop the list cell pushed above; the edge did not stay used.
	g.usedHead[cp] = g.usedNext[len(g.usedTo)-1]
	g.usedNext = g.usedNext[:len(g.usedNext)-1]
	g.usedTo = g.usedTo[:len(g.usedTo)-1]
	return false
}

// addEdgeChecked inserts the used edge (u, v) into the used-edge
// adjacency while maintaining the level invariant lvl[u] < lvl[v] across
// all used edges (online topological ordering in the style of Katriel
// and Bodlaender). It reports false — leaving every structure untouched
// — iff the edge would close a cycle. The accept/reject answer is
// exactly "is u reachable from v over used edges", the same predicate
// the original full DFS computed, so routing decisions (and
// bit-identity) are unaffected; only the search cost changes.
func (g *Graph) addEdgeChecked(u, v graph.ChannelID) bool {
	if g.lvl[u] >= g.lvl[v] {
		// The edge disagrees with the leveling: probe reachability inside
		// the level window, then lift v's downstream levels.
		if g.reaches(v, u) {
			return false
		}
		g.raise(v, g.lvl[u]+1)
	}
	g.markEdgeUsed(u, v)
	return true
}

// mustAddEdge is addEdgeChecked for call sites where a cycle is
// structurally impossible (fresh vertex, disjoint-subgraph merge, escape
// tree): it maintains the leveling but skips the reachability probe —
// these are the condition (c) shortcuts of Algorithm 3, which by
// construction perform no cycle search.
func (g *Graph) mustAddEdge(u, v graph.ChannelID) {
	if g.lvl[u] >= g.lvl[v] {
		g.raise(v, g.lvl[u]+1)
	}
	g.markEdgeUsed(u, v)
}

// reaches reports whether target is reachable from src over used edges.
// Levels strictly increase along used edges, so every intermediate node
// of a src -> target path has lvl < lvl[target] — the walk prunes
// anything at or above the target's level.
func (g *Graph) reaches(src, target graph.ChannelID) bool {
	ub := g.lvl[target]
	g.epoch++
	e := g.epoch
	stack := append(g.stack[:0], src)
	g.visited[src] = e
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := g.usedHead[c]; i >= 0; i = g.usedNext[i] {
			nxt := g.usedTo[i]
			if nxt == target {
				g.stack = stack[:0]
				return true
			}
			if g.lvl[nxt] < ub && g.visited[nxt] != e {
				g.visited[nxt] = e
				stack = append(stack, nxt)
			}
		}
	}
	g.stack = stack[:0]
	return false
}

// raise lifts v to at least level k and restores the invariant
// downstream. The caller has established that the pending edge closes
// no cycle, so the propagation terminates; levels only ever grow, which
// amortizes the total lifting work of a layer.
func (g *Graph) raise(v graph.ChannelID, k int32) {
	if g.lvl[v] >= k {
		return
	}
	g.lvl[v] = k
	stack := append(g.stack[:0], v)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lc := g.lvl[c]
		for i := g.usedHead[c]; i >= 0; i = g.usedNext[i] {
			if nxt := g.usedTo[i]; g.lvl[nxt] <= lc {
				g.lvl[nxt] = lc + 1
				stack = append(stack, nxt)
			}
		}
	}
	g.stack = stack[:0]
}

// UsedAcyclic verifies that the used subgraph of the complete CDG is
// acyclic (Kahn's algorithm over used edges). Intended for tests and the
// routing verifier; O(|C| + |E|).
func (g *Graph) UsedAcyclic() bool {
	nc := len(g.chOmega)
	g.indeg = freelist.Grow(g.indeg, nc)
	indeg := g.indeg
	clear(indeg)
	usedEdges := 0
	for c := 0; c < nc; c++ {
		base := g.start[c]
		for i := range g.Succ(graph.ChannelID(c)) {
			if g.edOmega[base+int32(i)] >= 1 {
				indeg[g.succ[base+int32(i)]]++
				usedEdges++
			}
		}
	}
	queue := g.stack[:0]
	for c := 0; c < nc; c++ {
		if indeg[c] == 0 {
			queue = append(queue, graph.ChannelID(c))
		}
	}
	removed := 0
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		base := g.start[c]
		for i, nxt := range g.Succ(c) {
			if g.edOmega[base+int32(i)] >= 1 {
				removed++
				indeg[nxt]--
				if indeg[nxt] == 0 {
					queue = append(queue, nxt)
				}
			}
		}
	}
	g.stack = queue[:0]
	return removed == usedEdges
}

// StateDigest returns an FNV-1a hash over the CDG's per-channel and
// per-edge states (unused/used/blocked — group identities are excluded,
// they depend on allocation order, not on the routed configuration).
// Two CDGs of the same layer digest equal iff every vertex and edge
// ended in the same state; the golden wall pins it per layer, so a change
// that keeps the tables but drives the CDG differently is caught.
func (g *Graph) StateDigest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, w := range g.chOmega {
		if w >= 1 {
			mix(1)
		} else {
			mix(0)
		}
	}
	for _, w := range g.edOmega {
		switch {
		case w == omegaBlocked:
			mix(2)
		case w >= 1:
			mix(1)
		default:
			mix(0)
		}
	}
	return h
}
