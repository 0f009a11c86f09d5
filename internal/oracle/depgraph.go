package oracle

import (
	"repro/internal/graph"
)

// depGraph is the used-dependency graph: one vertex per (channel,
// virtual lane) pair, one edge per observed consecutive channel pair on
// a walked path. It is rebuilt from the finished routing alone — no
// engine-side CDG state is consulted.
type depGraph struct {
	layers int
	nv     int
	adj    [][]int32
	// vEdges marks dependencies of cast V-type (branch contention
	// between two outputs of one switch); witness extraction uses it to
	// annotate cycle edges that do not chain head to tail.
	vEdges map[uint64]struct{}
}

func newDepGraph(channels, layers int) *depGraph {
	nv := channels * layers
	return &depGraph{
		layers: layers,
		nv:     nv,
		adj:    make([][]int32, nv),
	}
}

func (g *depGraph) vertex(c graph.ChannelID, vl uint8) int32 {
	return int32(int(c)*g.layers + int(vl))
}

// add records the dependency (a@va) -> (b@vb), deduplicated.
func (g *depGraph) add(a graph.ChannelID, va uint8, b graph.ChannelID, vb uint8) {
	g.addTyped(a, va, b, vb, false)
}

// addTyped is add with a cast V-type marker. It reads and writes the
// adjacency list of the source vertex only (V-type markers aside, which
// only the cast walk sets), so goroutines adding dependencies of
// different lanes need no lock. Dedup is a linear scan of that list: a
// vertex's out-degree is bounded by the radix of the channel's head
// switch (times the lane fan-out), so the scan stays short — and it
// spares the graph a global edge-set map, whose growth dominated
// dependency-build profiles.
func (g *depGraph) addTyped(a graph.ChannelID, va uint8, b graph.ChannelID, vb uint8, vdep bool) {
	u, v := g.vertex(a, va), g.vertex(b, vb)
	if vdep {
		if g.vEdges == nil {
			g.vEdges = make(map[uint64]struct{})
		}
		g.vEdges[uint64(uint32(u))<<32|uint64(uint32(v))] = struct{}{}
	}
	for _, w := range g.adj[u] {
		if w == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], v)
}

// numDeps counts the distinct dependencies recorded.
func (g *depGraph) numDeps() int {
	n := 0
	for _, succ := range g.adj {
		n += len(succ)
	}
	return n
}

// isV reports whether the edge u -> v was recorded as a V-type
// dependency.
func (g *depGraph) isV(u, v int32) bool {
	_, ok := g.vEdges[uint64(uint32(u))<<32|uint64(uint32(v))]
	return ok
}

// findCycle runs an iterative Tarjan strongly-connected-components
// search and, when a non-trivial SCC exists, extracts one concrete cycle
// from it. It returns the cycle as a vertex sequence (each adjacent pair
// is a recorded dependency, and the last wraps to the first), or nil if
// the graph is acyclic.
func (g *depGraph) findCycle() []int32 {
	const unvisited = -1
	index := make([]int32, g.nv)
	lowlink := make([]int32, g.nv)
	onStack := make([]bool, g.nv)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int32
	next := int32(0)

	// Explicit DFS frames: v plus the position in its adjacency list.
	type frame struct {
		v  int32
		ei int
	}
	var frames []frame

	var scc []int32
	for root := int32(0); root < int32(g.nv); root++ {
		if index[root] != unvisited || len(g.adj[root]) == 0 {
			continue
		}
		frames = append(frames[:0], frame{v: root})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack[:0], root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.adj[f.v]) {
				w := g.adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] {
					if index[w] < lowlink[f.v] {
						lowlink[f.v] = index[w]
					}
				}
				continue
			}
			// All successors explored: close the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				// Pop one SCC off the Tarjan stack.
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					scc = comp
				}
				// A single-vertex SCC is cyclic only via a self-loop,
				// which channel continuity makes impossible (a channel
				// cannot follow itself); no check needed.
			}
		}
		if scc != nil {
			return canonicalCycle(g.cycleWithin(scc))
		}
	}
	return nil
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
func (g *depGraph) cycleWithin(comp []int32) []int32 {
	member := make(map[int32]bool, len(comp))
	for _, v := range comp {
		member[v] = true
	}
	pos := make(map[int32]int, len(comp))
	var path []int32
	cur := comp[0]
	for {
		if at, ok := pos[cur]; ok {
			return path[at:]
		}
		pos[cur] = len(path)
		path = append(path, cur)
		advanced := false
		for _, w := range g.adj[cur] {
			if member[w] {
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

// witness converts a vertex cycle into channel-level form, marking the
// edges that are cast V-type dependencies.
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
			V:       g.isV(v, cycle[(i+1)%len(cycle)]),
		}
	}
	return out
}
