package oracle

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/routing"
)

// This file is how a certifier call uses more than one core and how it
// learns, once per call, which nodes owe a destination a path. Both are
// the oracle's own code: internal/routing/verify solves the same two
// problems separately, and neither imports the other.
//
// Lanes. When the lane of a packet is a function of its destination alone
// (DestLayer or a single layer, no per-pair layers, no SL2VL mapping, no
// source-routed overrides — the shape the fabric publishes and the only
// one CertifyTransition accepts), every dependency the destination
// induces joins two vertices (channel, l) of its own lane l. The lanes
// are then handed out one at a time to up to GOMAXPROCS goroutines that
// all append to the ONE dependency graph: a goroutine only touches the
// adjacency lists of the lane it holds, so there is nothing to lock and
// nothing to merge, each list is filled in the order a single goroutine
// would have filled it, and the cycle search that follows sees the same
// graph whatever the goroutine count. Lane goroutines report success
// only: if one meets a violation the graph is dropped and the call runs
// again on one goroutine, so every error, witness and partial count is
// the sequential one.

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
// more lanes are handed out — g is empty again and the caller walks all
// lanes at once.
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
		g.adj = make([][]int32, g.nv)
		return false
	}
	return true
}

// laneWalker is all that one lane goroutine writes besides the adjacency
// lists of its lanes and its marks: the walker and the certificate it
// counts into, in one allocation. The padding keeps the counters of two
// goroutines, which the allocator places back to back, off one cache
// line; without it the second core buys nothing.
type laneWalker struct {
	tableWalker
	counts Certificate
	_      [64]byte
}

// walkPairs walks every owed pair of res into dg and counts into cert,
// one lane per goroutine when the shape allows it.
func walkPairs(net *graph.Network, res *routing.Result, sources []graph.NodeID, cert *Certificate, dg *depGraph) error {
	reach := sweepReach(net, res.Table.Dests())
	if res.PairLayer == nil && res.SLToVL == nil && res.PairPath == nil {
		var walkers []*laneWalker
		ok := dg.fillLanes(distinctLanes(res.DestLayer), func() func(int) error {
			w := &laneWalker{}
			w.tableWalker = *newTableWalker(net, res, &w.counts, dg, true)
			walkers = append(walkers, w)
			return func(lane int) error { return w.walkAll(sources, reach, lane) }
		})
		if ok {
			for _, w := range walkers {
				cert.Pairs += w.counts.Pairs
				cert.Steps += w.counts.Steps
				cert.MaxHops = max(cert.MaxHops, w.counts.MaxHops)
			}
			return nil
		}
	}
	return newTableWalker(net, res, cert, dg, true).walkAll(sources, reach, allLanes)
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
}

// of returns the nodes that can reach the connected destination d.
func (r *reachClasses) of(d graph.NodeID) []bool { return r.reached[r.label[d]-1] }

// sweepReach finds the classes of the connected destinations: for the
// first destination met of each class one breadth-first sweep over
// reversed channels (who reaches it) and one over forward channels (whom
// it reaches); the nodes in BOTH sets form its class. A node in the
// reverse set alone must not be labelled — it reaches d, but d need not
// reach it, and then fewer nodes may reach it than reach d.
func sweepReach(net *graph.Network, dests []graph.NodeID) *reachClasses {
	view := net.CSRView()
	n := view.NumNodes()
	r := &reachClasses{label: make([]int32, n)}
	forward := make([]bool, n)
	var back, queue []graph.NodeID
	for _, d := range dests {
		if r.label[d] != 0 || len(net.Out(d)) == 0 {
			continue
		}
		reaches := make([]bool, n)
		reaches[d] = true
		back = append(back[:0], d)
		for head := 0; head < len(back); head++ {
			for _, c := range view.In(back[head]) {
				if from := view.From[c]; !reaches[from] {
					reaches[from] = true
					back = append(back, from)
				}
			}
		}
		forward[d] = true
		queue = append(queue[:0], d)
		for head := 0; head < len(queue); head++ {
			for _, c := range view.Out(queue[head]) {
				if to := view.To[c]; !forward[to] {
					forward[to] = true
					queue = append(queue, to)
				}
			}
		}
		r.reached = append(r.reached, reaches)
		class := int32(len(r.reached))
		for _, v := range back {
			if forward[v] {
				r.label[v] = class
			}
		}
		for _, v := range queue {
			forward[v] = false
		}
	}
	return r
}
