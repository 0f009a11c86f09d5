package oracle

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/routing"
)

// This file is how a certifier call uses more than one core and how it
// learns, once per call, which nodes owe a destination a path
// (internal/routing/verify solves both separately).
//
// Lanes. When a packet's lane is a function of its destination alone
// (DestLayer or one layer; no PairLayer, SLToVL or PairPath — the shape
// the fabric publishes), every dependency of a destination joins two
// vertices of its lane. Up to GOMAXPROCS goroutines then take one lane
// at a time and append to the ONE dependency graph, each touching only
// the arrays of its lane: nothing to lock or merge, every successor
// chain in single-goroutine order, the same graph for the cycle search
// whatever the goroutine count. If a goroutine meets a violation the
// graph is emptied and the call runs again on one goroutine, so every
// error, witness and partial count is the sequential one.

// allLanes makes a walk take every destination, whatever its lane.
const allLanes = -1

// distinctLanes lists the lanes the given DestLayer assignments use; a
// nil assignment puts every destination on lane 0.
func distinctLanes(assignments ...[]uint8) []uint8 {
	var seen [256]bool
	var lanes []uint8
	note := func(l uint8) {
		if !seen[l] {
			seen[l] = true
			lanes = append(lanes, l)
		}
	}
	for _, a := range assignments {
		if a == nil {
			note(0)
		}
		for _, l := range a {
			note(l)
		}
	}
	return lanes
}

// fillLanes fills g one lane per goroutine: it makes one walk function
// per goroutine with newWalk (called here, before the goroutines start)
// and has min(GOMAXPROCS, lanes) goroutines call theirs with one lane
// after another, each taking the next lane when done with the last. It
// reports whether that happened and every walk returned nil. If not —
// fewer than two goroutines, or a walk met a violation, after which no
// more lanes are handed out — g is empty again, its arrays kept, and the
// caller walks all lanes at once.
func (g *depGraph) fillLanes(lanes []uint8, newWalk func() func(lane int) error) bool {
	workers := min(runtime.GOMAXPROCS(0), len(lanes))
	if workers < 2 {
		return false
	}
	var next atomic.Int32
	var failed atomic.Bool
	var wg sync.WaitGroup
	for ; workers > 0; workers-- {
		walk := newWalk()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(lanes) {
					return
				}
				if walk(int(lanes[i])) != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		g.reset(g.channels, g.layers)
		return false
	}
	return true
}

// laneWalker is all that one lane goroutine writes besides the graph's
// arrays of its lanes and its marks: the walker and the certificate it
// counts into, in one allocation. The padding keeps the counters of two
// goroutines, which the allocator places back to back, off one cache
// line; without it the second core buys nothing.
type laneWalker struct {
	tableWalker
	counts Certificate
	_      [64]byte
}

// walkPairs walks every owed pair of res into s.dg and counts into cert,
// one lane per goroutine when the shape allows it.
func (s *certifyScratch) walkPairs(net *graph.Network, res *routing.Result, sources []graph.NodeID, cert *Certificate) error {
	s.reach.sweep(net, res.Table.Dests())
	if res.PairLayer == nil && res.SLToVL == nil && res.PairPath == nil {
		n := 0
		ok := s.dg.fillLanes(distinctLanes(res.DestLayer), func() func(int) error {
			w := s.walker(n, net, res, nil)
			n++
			return func(lane int) error { return w.walkAll(sources, &s.reach, lane) }
		})
		if ok {
			for _, w := range s.walkers[:n] {
				cert.Pairs += w.counts.Pairs
				cert.Steps += w.counts.Steps
				cert.MaxHops = max(cert.MaxHops, w.counts.MaxHops)
			}
			return nil
		}
	}
	return s.walker(0, net, res, cert).walkAll(sources, &s.reach, allLanes)
}

// reachClasses holds, for every connected destination of one call, the
// set of nodes that can reach it. The sets are shared between the
// destinations of a class — nodes that all reach one another: if d and r
// reach each other, a path from v to either extends to the other, so v
// reaches d exactly when it reaches r. A connected duplex network is one
// class and costs two sweeps a call instead of one per destination;
// one-way faults and disconnected components only make more classes.
type reachClasses struct {
	label   []int32  // label[v] > 0: the class of v
	reached [][]bool // reached[label[v]-1][u]: u can reach v

	forward     []bool // sweep scratch
	back, queue []graph.NodeID
}

// of returns the nodes that can reach the connected destination d.
func (r *reachClasses) of(d graph.NodeID) []bool { return r.reached[r.label[d]-1] }

// sweep finds the classes of the connected destinations, reusing r's
// arrays: for the first destination met of each class one breadth-first
// sweep over reversed channels (who reaches it) and one over forward
// channels (whom it reaches); the nodes in BOTH sets form its class. A
// node in the reverse set alone must not be labelled — it reaches d, but
// d need not reach it, and then fewer nodes may reach it than reach d.
func (r *reachClasses) sweep(net *graph.Network, dests []graph.NodeID) {
	view := net.CSRView()
	n := view.NumNodes()
	if len(r.label) != n {
		r.label, r.forward = make([]int32, n), make([]bool, n)
	}
	clear(r.label)
	clear(r.forward)
	r.reached = r.reached[:0]
	for _, d := range dests {
		if r.label[d] != 0 || len(net.Out(d)) == 0 {
			continue
		}
		var reaches []bool
		if k := len(r.reached); k < cap(r.reached) {
			reaches = r.reached[:k+1][k]
		}
		if len(reaches) != n {
			reaches = make([]bool, n)
		}
		clear(reaches)
		reaches[d] = true
		r.back = append(r.back[:0], d)
		for head := 0; head < len(r.back); head++ {
			for _, c := range view.In(r.back[head]) {
				if from := view.From[c]; !reaches[from] {
					reaches[from] = true
					r.back = append(r.back, from)
				}
			}
		}
		r.forward[d] = true
		r.queue = append(r.queue[:0], d)
		for head := 0; head < len(r.queue); head++ {
			for _, c := range view.Out(r.queue[head]) {
				if to := view.To[c]; !r.forward[to] {
					r.forward[to] = true
					r.queue = append(r.queue, to)
				}
			}
		}
		r.reached = append(r.reached, reaches)
		class := int32(len(r.reached))
		for _, v := range r.back {
			if r.forward[v] {
				r.label[v] = class
			}
		}
		for _, v := range r.queue {
			r.forward[v] = false
		}
	}
}
