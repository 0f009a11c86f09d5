package cdg

import (
	"slices"

	"repro/internal/graph"
)

// Induced is the channel dependency graph a set of routes induces: a
// dependency (a, b) for every pair of channels some route takes one after
// the other. The baselines that enforce the acyclic-CDG condition keep one
// per virtual layer (DFSSSP and smart routing break its cycles, LASH
// refuses a path that would close one), and the existence procedure
// (oracle/exists) builds one over forced dependencies and reads its trap
// off the first cycle. Nue's complete CDG, with its states, is Graph.
//
// A dependency is added once and never removed: a route that leaves
// lowers its Count, and Reaches and FindCycle follow only dependencies
// with Count > 0. An Induced is not safe for concurrent use.
type Induced struct {
	succ [][]int32 // per channel: its dependencies (deps indices), in insertion order
	deps []Dependency

	// Search scratch, kept between calls. stamp marks what one Reaches
	// call has visited: entries from older calls hold older epochs.
	stamp  []uint32
	epoch  uint32
	stack  []graph.ChannelID
	color  []int8
	frames []frame
}

// Dependency is one induced dependency: a route takes channel From,
// then channel To.
type Dependency struct {
	From, To graph.ChannelID
	// Count is the number of routes that hold the dependency now; the
	// caller keeps it.
	Count int32
	// Users lists what the caller recorded for every route that ever
	// added the dependency (a path or destination index), in the order
	// they were added.
	Users []int32
}

// frame is one channel on FindCycle's depth-first path and the index of
// the next dependency it tries.
type frame struct {
	c  graph.ChannelID
	ix int
}

// Reset empties the graph for channels channels. The arrays, the Users
// lists included, are kept for the dependencies added next.
func (g *Induced) Reset(channels int) {
	for i := range g.deps {
		g.succ[g.deps[i].From] = g.succ[g.deps[i].From][:0]
	}
	g.deps = g.deps[:0]
	if cap(g.succ) < channels {
		g.succ = make([][]int32, channels)
	}
	g.succ = g.succ[:channels]
}

// Dep returns the dependency (a, b), adding it with Count 0 if it is new.
// The pointer is valid until the next Dep that adds one.
func (g *Induced) Dep(a, b graph.ChannelID) *Dependency {
	for _, i := range g.succ[a] {
		if g.deps[i].To == b {
			return &g.deps[i]
		}
	}
	i := len(g.deps)
	if i < cap(g.deps) {
		g.deps = g.deps[:i+1]
		g.deps[i] = Dependency{From: a, To: b, Users: g.deps[i].Users[:0]}
	} else {
		g.deps = append(g.deps, Dependency{From: a, To: b})
	}
	g.succ[a] = append(g.succ[a], int32(i))
	return &g.deps[i]
}

// SortSuccessors orders every channel's dependencies by their To channel,
// so FindCycle walks successors in ascending order instead of insertion
// order.
func (g *Induced) SortSuccessors() {
	for _, s := range g.succ {
		slices.SortFunc(s, func(x, y int32) int { return int(g.deps[x].To) - int(g.deps[y].To) })
	}
}

// Reaches reports whether dst can be reached from src over dependencies
// with Count > 0; a channel reaches itself. Adding (a, b) closes a cycle
// exactly when Reaches(b, a).
func (g *Induced) Reaches(src, dst graph.ChannelID) bool {
	if src == dst {
		return true
	}
	if len(g.stamp) < len(g.succ) {
		g.stamp = make([]uint32, len(g.succ))
		g.epoch = 0
	}
	if g.epoch++; g.epoch == 0 {
		clear(g.stamp)
		g.epoch = 1
	}
	g.stamp[src] = g.epoch
	g.stack = append(g.stack[:0], src)
	for len(g.stack) > 0 {
		c := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, i := range g.succ[c] {
			d := &g.deps[i]
			if d.Count <= 0 || g.stamp[d.To] == g.epoch {
				continue
			}
			if d.To == dst {
				return true
			}
			g.stamp[d.To] = g.epoch
			g.stack = append(g.stack, d.To)
		}
	}
	return false
}

// FindCycle returns one cycle of the dependencies with Count > 0, or nil
// if there is none. The search is depth-first from the channels in
// ascending order, over each channel's dependencies in insertion order
// (ascending after SortSuccessors), and stops at the first dependency
// that closes a cycle. The cycle comes as consecutive (from, to) pairs,
// starting at the closing dependency's head and ending with the closing
// dependency.
func (g *Induced) FindCycle() [][2]graph.ChannelID {
	const (
		white = iota
		gray  // on the depth-first path
		black // finished: no cycle through it
	)
	g.color = slices.Grow(g.color[:0], len(g.succ))[:len(g.succ)]
	clear(g.color)
	for root := range g.succ {
		if g.color[root] != white || len(g.succ[root]) == 0 {
			continue
		}
		g.color[root] = gray
		g.frames = append(g.frames[:0], frame{c: graph.ChannelID(root)})
		for len(g.frames) > 0 {
			f := &g.frames[len(g.frames)-1]
			succ := g.succ[f.c]
			if f.ix == len(succ) {
				g.color[f.c] = black
				g.frames = g.frames[:len(g.frames)-1]
				continue
			}
			d := &g.deps[succ[f.ix]]
			f.ix++
			if d.Count <= 0 {
				continue
			}
			switch g.color[d.To] {
			case white:
				g.color[d.To] = gray
				g.frames = append(g.frames, frame{c: d.To})
			case gray:
				head := len(g.frames) - 1
				for g.frames[head].c != d.To {
					head--
				}
				cyc := make([][2]graph.ChannelID, 0, len(g.frames)-head)
				for k := head; k+1 < len(g.frames); k++ {
					cyc = append(cyc, [2]graph.ChannelID{g.frames[k].c, g.frames[k+1].c})
				}
				return append(cyc, [2]graph.ChannelID{d.From, d.To})
			}
		}
	}
	return nil
}
