package cdg

import (
	"repro/internal/graph"
)

// DepKind classifies a cast dependency in an Overlay.
type DepKind uint8

const (
	// DepT is a tree (head-to-tail) dependency: a packet buffered on the
	// tree's in-channel of a switch wants one of the switch's cast
	// out-channels. T-type edges coincide with edges of the complete CDG.
	DepT DepKind = iota
	// DepV is a branch-contention dependency between two out-channels of
	// the same switch: the replicating packet reserves branch outputs in
	// ascending ChannelID order, so the holder of the lower-ID output
	// waits on the higher-ID one. V-type edges connect two channels that
	// are NOT head-to-tail adjacent — they exist only in the overlay,
	// never in the complete CDG.
	DepV
)

func (k DepKind) String() string {
	if k == DepV {
		return "V"
	}
	return "T"
}

// Overlay extends a complete CDG with typed cast-tree dependencies. The
// underlying Graph holds the unicast dependencies of one virtual layer
// (seeded via SeedRoute); the overlay holds the T- and V-type edges of
// the layer's multicast trees. TryAddDep admits an edge only when the
// UNION of the used unicast edges and the overlay edges stays acyclic.
//
// Once an overlay carries edges, the underlying Graph's own TryUseEdgeByID
// is no longer a sound admission check (its cycle search cannot see the
// overlay), so all further dependency additions on the layer must go
// through the overlay. Like Graph, an Overlay is not safe for
// concurrent use.
type Overlay struct {
	g *Graph

	adj  map[graph.ChannelID][]graph.ChannelID
	seen map[uint64]DepKind

	// DFS scratch (separate from g's: the union search must not disturb
	// the Graph's epoch bookkeeping mid-TryUseEdgeByID).
	visited []int32
	epoch   int32
	stack   []graph.ChannelID

	// Stats for telemetry and benchmarks.
	TDeps         int // committed T-type edges
	VDeps         int // committed V-type edges
	Blocked       int // admissions refused (would close a cycle)
	CycleSearches int // union DFS runs
}

// NewOverlay wraps g with an empty cast overlay.
func NewOverlay(g *Graph) *Overlay {
	return &Overlay{
		g:       g,
		adj:     make(map[graph.ChannelID][]graph.ChannelID),
		seen:    make(map[uint64]DepKind),
		visited: make([]int32, len(g.chOmega)),
	}
}

func depKey(cp, cq graph.ChannelID) uint64 {
	return uint64(uint32(cp))<<32 | uint64(uint32(cq))
}

// TryAddDep admits the cast dependency (cp, cq) of the given kind into
// the overlay iff the union of the Graph's used edges and the overlay
// edges stays acyclic, and reports whether it did. Edges are recorded in
// the same reversed orientation the Graph uses for unicast routes: real
// cast traffic flowing c1 then c2 is admitted as (rev(c2), rev(c1)), and
// a V-type wait of held output o_low on wanted output o_high as
// (rev(o_high), rev(o_low)) — reversal is an isomorphism, so acyclicity
// transfers (see the package comment and DESIGN.md §13).
func (o *Overlay) TryAddDep(kind DepKind, cp, cq graph.ChannelID) bool {
	if cp == cq {
		return false
	}
	if _, ok := o.seen[depKey(cp, cq)]; ok {
		return true
	}
	// A cycle through the new edge must run cq ->* cp; search the union.
	o.CycleSearches++
	if o.unionReaches(cq, cp) {
		o.Blocked++
		return false
	}
	o.seen[depKey(cp, cq)] = kind
	o.adj[cp] = append(o.adj[cp], cq)
	if kind == DepV {
		o.VDeps++
	} else {
		o.TDeps++
	}
	return true
}

// unionReaches reports whether target is reachable from src over the
// union of used Graph edges and overlay edges.
func (o *Overlay) unionReaches(src, target graph.ChannelID) bool {
	o.epoch++
	o.stack = o.stack[:0]
	o.stack = append(o.stack, src)
	o.visited[src] = o.epoch
	for len(o.stack) > 0 {
		c := o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
		if c == target {
			return true
		}
		base := o.g.start[c]
		for i, nxt := range o.g.Succ(c) {
			if o.g.edOmega[base+int32(i)] >= 1 && o.visited[nxt] != o.epoch {
				o.visited[nxt] = o.epoch
				o.stack = append(o.stack, nxt)
			}
		}
		for _, nxt := range o.adj[c] {
			if o.visited[nxt] != o.epoch {
				o.visited[nxt] = o.epoch
				o.stack = append(o.stack, nxt)
			}
		}
	}
	return false
}

// UnionAcyclic verifies from scratch that the union of used Graph edges
// and overlay edges is acyclic (Kahn over the union). Intended for
// tests; O(|C| + |E|).
func (o *Overlay) UnionAcyclic() bool {
	nc := len(o.g.chOmega)
	indeg := make([]int32, nc)
	edges := 0
	for c := 0; c < nc; c++ {
		base := o.g.start[c]
		for i := range o.g.Succ(graph.ChannelID(c)) {
			if o.g.edOmega[base+int32(i)] >= 1 {
				indeg[o.g.succ[base+int32(i)]]++
				edges++
			}
		}
		for _, nxt := range o.adj[graph.ChannelID(c)] {
			indeg[nxt]++
			edges++
		}
	}
	queue := make([]graph.ChannelID, 0, nc)
	for c := 0; c < nc; c++ {
		if indeg[c] == 0 {
			queue = append(queue, graph.ChannelID(c))
		}
	}
	removed := 0
	pop := func(nxt graph.ChannelID) {
		removed++
		indeg[nxt]--
		if indeg[nxt] == 0 {
			queue = append(queue, nxt)
		}
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		base := o.g.start[c]
		for i, nxt := range o.g.Succ(c) {
			if o.g.edOmega[base+int32(i)] >= 1 {
				pop(nxt)
			}
		}
		for _, nxt := range o.adj[c] {
			pop(nxt)
		}
	}
	return removed == edges
}
