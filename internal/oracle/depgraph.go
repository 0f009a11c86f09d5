package oracle

import "repro/internal/graph"

// depGraph is the used-dependency graph: one vertex per (channel,
// virtual lane) pair, one edge per observed consecutive channel pair on
// a walked path. It is rebuilt from the finished routing alone — no
// engine-side CDG state is consulted.
//
// The graph is flat, with no heap object per vertex. Each lane keeps
// three arrays (depLane): slot, one int32 per channel, names the node of
// the channel's vertex on that lane; nodes holds one entry per vertex a
// dependency leaves, with the heads of its first four dependencies in
// recording order; deps holds the rest, chained per node in that order.
// A vertex no dependency leaves has no node (it cannot lie on a cycle),
// and nodes and deps grow by fixed blocks that are never copied, so a
// graph's memory follows the dependencies it records. The Tarjan search
// keeps its marks in the nodes and its stacks in the graph.
//
// A graph is kept from call to call. Each call, and the lanes' sequential
// fallback, empties it with reset and fills it again, and nothing an
// earlier fill left is read before it is written: reset clears exactly
// the slots the nodes name, and a node's Tarjan marks are zeroed when the
// node is created.
type depGraph struct {
	layers   int
	channels int
	lanes    []depLane

	stack  []laneNode // Tarjan scratch
	frames []tarjanFrame

	walkMark []int32 // cycleWithin's per-vertex marks, zero between calls
}

// depLane is one lane's share of a depGraph. Only the goroutine that
// holds the lane writes it; the padding keeps two lanes' headers, which
// sit back to back, off one cache line.
type depLane struct {
	slot  []int32 // slot[c] > 0: node slot[c]-1 is vertex (c, lane)
	nodes blocks[depNode]
	deps  blocks[depEdge]
	_     [64]byte
}

// depNode is a vertex with at least one recorded dependency. Most have
// four or fewer (a channel's dependencies are bounded by the radix of its
// head switch): they sit in the node, so the dedup scan of a dependency
// reads the one cache line its node lookup brought in.
type depNode struct {
	c    int32             // its channel; its lane is the lane holding it
	n    int32             // its dependencies
	head [inlineDeps]int32 // the head vertices of its first ones
	more int32             // the rest: the first of them in the lane's deps, -1 if none
	// Tarjan marks: index 0 is unvisited, done once its component is
	// closed; low is the lowlink.
	index, low int32
}

const inlineDeps = 4

// succ is a position in a node's dependencies, in recording order: k of
// them taken, e the next in the lane's deps once the inline ones are.
type succ struct{ k, e int32 }

// next returns the head vertex of the dependency at p and advances p, or
// false past the last one.
func (ln *depLane) next(n *depNode, p *succ) (int32, bool) {
	if p.k >= n.n {
		return 0, false
	}
	var to int32
	if p.k < inlineDeps {
		to = n.head[p.k]
	} else {
		d := ln.deps.at(p.e)
		to, p.e = d.to, d.next
	}
	p.k++
	return to, true
}

// done marks a node whose strongly connected component is closed.
const done = int32(1<<31 - 1)

// depEdge is one dependency past a node's inline ones.
type depEdge struct {
	to   int32 // its head vertex
	next int32 // the source vertex's next dependency, -1 at the end
}

// blocks is an append-only array kept in blocks of 64 entries. Growing
// it allocates one block and copies nothing, where a large slice grown by
// append allocates four times its final size on the way. Entries do not
// move, and the blocks of a reset array are reused.
type blocks[T any] struct {
	b [][]T
	n int32
}

const blockBits = 6

func (s *blocks[T]) at(i int32) *T { return &s.b[i>>blockBits][i&(1<<blockBits-1)] }

// push appends v and returns its index.
func (s *blocks[T]) push(v T) int32 {
	if int(s.n)>>blockBits == len(s.b) {
		if len(s.b) < cap(s.b) {
			s.b = s.b[:len(s.b)+1]
		} else {
			s.b = append(s.b, nil)
		}
		if s.b[len(s.b)-1] == nil {
			s.b[len(s.b)-1] = make([]T, 1<<blockBits)
		}
	}
	*s.at(s.n) = v
	s.n++
	return s.n - 1
}

func (s *blocks[T]) reset() { s.b, s.n = s.b[:0], 0 }

// reset empties g, keeps its arrays and makes it a graph over channels ×
// layers vertices. A lane's slot array is allocated at its first
// dependency, and dropped here if it has the wrong length; one kept is
// zero again, as reset clears the slots its nodes name.
func (g *depGraph) reset(channels, layers int) {
	all := g.lanes[:cap(g.lanes)]
	for i := range all {
		ln := &all[i]
		for k := int32(0); k < ln.nodes.n; k++ {
			ln.slot[ln.nodes.at(k).c] = 0
		}
		ln.nodes.reset()
		ln.deps.reset()
		if len(ln.slot) != channels {
			ln.slot = nil
		}
	}
	if layers > len(all) {
		all = append(all, make([]depLane, layers-len(all))...)
	}
	g.lanes, g.channels, g.layers = all[:layers], channels, layers
}

func (g *depGraph) vertex(c graph.ChannelID, vl uint8) int32 {
	return int32(int(c)*g.layers + int(vl))
}

// node returns the node of vertex (c, l), or nil if no dependency leaves
// it.
func (g *depGraph) node(c int32, l uint8) *depNode {
	ln := &g.lanes[l]
	if len(ln.slot) == 0 || ln.slot[c] == 0 {
		return nil
	}
	return ln.nodes.at(ln.slot[c] - 1)
}

// nodeOf is node for vertex v, with v's lane.
func (g *depGraph) nodeOf(v int32) (*depNode, uint8) {
	l := uint8(v % int32(g.layers))
	return g.node(v/int32(g.layers), l), l
}

// add records the dependency (a@va) -> (b@vb), deduplicated. It writes
// lane va's arrays only, so goroutines adding dependencies of different
// lanes need no lock. Dedup is a scan of the source vertex's chain: its
// length is bounded by the radix of the channel's head switch (times the
// lane fan-out), so the scan stays short — and it spares the graph a
// global edge-set map, whose growth dominated dependency-build profiles.
func (g *depGraph) add(a graph.ChannelID, va uint8, b graph.ChannelID, vb uint8) {
	ln := &g.lanes[va]
	if len(ln.slot) == 0 {
		ln.slot = make([]int32, g.channels)
	}
	s := ln.slot[a]
	if s == 0 {
		s = ln.nodes.push(depNode{c: int32(a), more: -1}) + 1
		ln.slot[a] = s
	}
	n, to := ln.nodes.at(s-1), g.vertex(b, vb)
	for _, h := range n.head[:min(n.n, inlineDeps)] {
		if h == to {
			return
		}
	}
	last := int32(-1)
	for e := n.more; e >= 0; {
		d := ln.deps.at(e)
		if d.to == to {
			return
		}
		last, e = e, d.next
	}
	switch {
	case n.n < inlineDeps:
		n.head[n.n] = to
	case last < 0:
		n.more = ln.deps.push(depEdge{to: to, next: -1})
	default:
		ln.deps.at(last).next = ln.deps.push(depEdge{to: to, next: -1})
	}
	n.n++
}

// numDeps counts the distinct dependencies recorded.
func (g *depGraph) numDeps() int {
	n := 0
	for i := range g.lanes {
		nodes := &g.lanes[i].nodes
		for k := int32(0); k < nodes.n; k++ {
			n += int(nodes.at(k).n)
		}
	}
	return n
}

// laneNode is a node with its lane: a vertex.
type laneNode struct {
	n *depNode
	l uint8
}

// tarjanFrame is one explicit DFS frame: a vertex and the next of its
// dependencies to explore.
type tarjanFrame struct {
	laneNode
	p succ
}

// findCycle runs an iterative Tarjan strongly-connected-components
// search and, when a non-trivial SCC exists, extracts one concrete cycle
// from it. It returns the cycle as a vertex sequence (each adjacent pair
// is a recorded dependency, and the last wraps to the first), or nil if
// the graph is acyclic. Roots are taken in ascending vertex order and
// successors in recording order. A vertex without a node is a sink: it
// would close as a component of its own without lowering any lowlink, so
// it is not visited at all.
func (g *depGraph) findCycle() []int32 {
	index := int32(0)
	for c := int32(0); c < int32(g.channels); c++ {
		for l := range g.lanes {
			root := g.node(c, uint8(l))
			if root == nil || root.index != 0 {
				continue
			}
			if scc := g.strongConnect(laneNode{root, uint8(l)}, &index); scc != nil {
				return canonicalCycle(g.cycleWithin(scc))
			}
		}
	}
	return nil
}

// strongConnect runs Tarjan's search from root and returns the vertices
// of the last non-trivial component it closes, nil if none.
func (g *depGraph) strongConnect(root laneNode, index *int32) []int32 {
	visit := func(v laneNode) {
		*index++
		v.n.index, v.n.low = *index, *index
		g.stack = append(g.stack, v)
		g.frames = append(g.frames, tarjanFrame{v, succ{e: v.n.more}})
	}
	g.stack, g.frames = g.stack[:0], g.frames[:0]
	visit(root)
	var scc []int32
	for len(g.frames) > 0 {
		f := &g.frames[len(g.frames)-1]
		if to, ok := g.lanes[f.l].next(f.n, &f.p); ok {
			w, l := g.nodeOf(to)
			switch {
			case w == nil || w.index == done:
			case w.index == 0:
				visit(laneNode{w, l})
			case w.index < f.n.low:
				f.n.low = w.index // w is on the stack
			}
			continue
		}
		// All successors explored: close the frame.
		v := f.n
		g.frames = g.frames[:len(g.frames)-1]
		if len(g.frames) > 0 {
			if p := g.frames[len(g.frames)-1].n; v.low < p.low {
				p.low = v.low
			}
		}
		if v.low != v.index {
			continue
		}
		// Pop one SCC off the Tarjan stack, top first.
		k := len(g.stack) - 1
		for g.stack[k].n != v {
			k--
		}
		if len(g.stack)-k > 1 {
			scc = scc[:0]
			for i := len(g.stack) - 1; i >= k; i-- {
				scc = append(scc, g.vertex(graph.ChannelID(g.stack[i].n.c), g.stack[i].l))
			}
		}
		// A single-vertex SCC is cyclic only via a self-loop, which
		// channel continuity makes impossible (a channel cannot follow
		// itself); no check needed.
		for _, m := range g.stack[k:] {
			m.n.index = done
		}
		g.stack = g.stack[:k]
	}
	return scc
}

// canonicalCycle rotates a vertex cycle to start at its smallest
// (channel, VL) vertex. The raw start vertex is an artifact of SCC
// traversal order; canonicalizing makes two runs that find the same
// cycle produce byte-identical witnesses, so tests can assert exact
// witnesses.
func canonicalCycle(cycle []int32) []int32 {
	if len(cycle) == 0 {
		return cycle
	}
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	if min == 0 {
		return cycle
	}
	out := make([]int32, 0, len(cycle))
	out = append(out, cycle[min:]...)
	out = append(out, cycle[:min]...)
	return out
}

// cycleWithin extracts a concrete cycle from a strongly connected
// component: walk from any member following in-component edges until a
// vertex repeats; the walked suffix between the two visits is a cycle.
// A member not yet walked is marked 1 and the member walked at position
// i is marked 2+i; the marks of the component are zeroed on return.
func (g *depGraph) cycleWithin(comp []int32) []int32 {
	if nv := g.channels * g.layers; len(g.walkMark) < nv {
		g.walkMark = make([]int32, nv)
	}
	mark := g.walkMark
	for _, v := range comp {
		mark[v] = 1
	}
	defer func() {
		for _, v := range comp {
			mark[v] = 0
		}
	}()
	path := make([]int32, 0, len(comp))
	cur := comp[0]
	for {
		if at := mark[cur] - 2; at >= 0 {
			return path[at:]
		}
		mark[cur] = 2 + int32(len(path))
		path = append(path, cur)
		advanced := false
		n, l := g.nodeOf(cur)
		for p := (succ{e: n.more}); ; {
			w, ok := g.lanes[l].next(n, &p)
			if !ok {
				break
			}
			if mark[w] > 0 {
				cur = w
				advanced = true
				break
			}
		}
		if !advanced {
			// Cannot happen in a strongly connected component of size
			// > 1; bail out defensively rather than loop forever.
			return path
		}
	}
}

// witness converts a vertex cycle into channel-level form.
func (g *depGraph) witness(net *graph.Network, cycle []int32) []Dep {
	out := make([]Dep, len(cycle))
	for i, v := range cycle {
		c := graph.ChannelID(int(v) / g.layers)
		ch := net.Channel(c)
		out[i] = Dep{
			Channel: c,
			From:    ch.From,
			To:      ch.To,
			VL:      uint8(int(v) % g.layers),
		}
	}
	return out
}
