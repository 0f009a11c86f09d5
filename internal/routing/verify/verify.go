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
	"runtime"
	"sync"
	"sync/atomic"

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
	// Steps is the number of forwarding-table lookups made: one per hop
	// stepped and validated, plus one for each pair whose walk joined an
	// earlier one (override hops are not table lookups). Per destination
	// it is bounded by the nodes that reach it plus the pairs owed to it,
	// not by the sum of the path lengths.
	Steps int
	// DeadlockFree is true when the induced dependency graph is acyclic.
	DeadlockFree bool
	// CyclicVLs lists the virtual lanes of vertices involved in cycles.
	CyclicVLs []int
}

// Check runs all verifications for the given sources (nil = all
// terminals, or all connected nodes if the network has no terminals) and
// returns an error describing the first violated property. The table is
// destination-based, so per destination every table entry an owed pair
// uses is stepped and validated once: routing.WalkUntil stops a pair's
// walk at the first node an earlier source of the same destination and
// service level already took to the destination, and only the new hops
// and the dependency across the junction are recorded.
//
// A result in the shape the fabric publishes (destLanes) is walked one
// virtual lane per goroutine, on up to GOMAXPROCS of them: a lane's
// dependencies stay on its own vertices of the one dependency graph, so
// the walkers share nothing they write. They report success only. When
// one meets a violation the graph is emptied and the call runs again on
// one goroutine, so the error, the counts that come with it and "first
// violation in (destination, source) order" are always the sequential
// ones. Report and error are the same for every GOMAXPROCS.
//
// No state a verdict reads outlives the call. Its scratch (dependency
// graph, Kahn's queue, walkers, reach sweep, default sources) is kept
// for the next call, which sizes and clears every array before reading
// it (walker marks are stamps that only grow); nothing returned aliases
// it, and a call made while another holds it allocates its own.
func Check(net *graph.Network, res *routing.Result, sources []graph.NodeID) (*Report, error) {
	call := kept.Swap(nil)
	if call == nil {
		call = new(checkCall)
	}
	defer call.release()
	call.reset(net, res, sources)
	lanes := destLanes(res)
	if workers := min(runtime.GOMAXPROCS(0), len(lanes)); workers > 1 {
		if rep := call.walkSharded(lanes, workers); rep != nil {
			return rep, checkDeadlockFree(&call.deps, rep)
		}
		call.deps.reset(call.deps.channels, call.deps.vcs)
	}
	w := call.walker(0)
	if err := w.walk(allLanes); err != nil {
		return &Report{Pairs: w.Pairs, MaxHops: w.MaxHops}, err
	}
	rep := w.Report // a copy: the walker is kept for the next call
	return &rep, checkDeadlockFree(&call.deps, &rep)
}

// kept is the scratch of the last Check call, for the next one.
var kept atomic.Pointer[checkCall]

// destLanes returns the distinct virtual lanes of a result whose lane is
// a function of the destination alone: DestLayer set, no per-pair
// layers, no SL2VL mapping, no source-routed overrides. Every dependency
// such a result induces joins two vertices of one lane. Any other shape
// gives nil and is walked on one goroutine.
func destLanes(res *routing.Result) []uint8 {
	if res.DestLayer == nil || res.PairLayer != nil || res.SLToVL != nil || res.PairPath != nil ||
		len(res.DestLayer) != len(res.Table.Dests()) {
		return nil
	}
	var seen [256]bool
	var lanes []uint8
	for _, l := range res.DestLayer {
		if !seen[l] {
			seen[l] = true
			lanes = append(lanes, l)
		}
	}
	return lanes
}

// appendSources appends the default sources to out: the connected
// terminals, or every connected node if the network has none (fault
// injection may orphan some).
func appendSources(out []graph.NodeID, net *graph.Network) []graph.NodeID {
	terms := net.NumTerminals() > 0
	for n := 0; n < net.NumNodes(); n++ {
		if id := graph.NodeID(n); (!terms || net.IsTerminal(id)) && net.Degree(id) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// checkDeadlockFree checks the induced dependency graph for cycles.
func checkDeadlockFree(dg *depGraph, rep *Report) error {
	rep.CyclicVLs = dg.cyclicLanes()
	if len(rep.CyclicVLs) == 0 {
		rep.DeadlockFree = true
		return nil
	}
	return fmt.Errorf("verify: cyclic channel dependency graph on VLs %v (deadlock possible)", rep.CyclicVLs)
}

// checkCall is one Check call: its inputs, which every walker reads, and
// the dependency graph the walkers fill. Between calls it is the kept
// scratch, its inputs dropped.
type checkCall struct {
	net       *graph.Network
	res       *routing.Result
	sources   []graph.NodeID
	vcs       int
	overrides bool // res has PairPath entries
	reach     reachClasses
	deps      depGraph
	walkers   []*laneWalker
	own       []graph.NodeID // the default sources
}

func (call *checkCall) reset(net *graph.Network, res *routing.Result, sources []graph.NodeID) {
	if sources == nil {
		call.own = appendSources(call.own[:0], net)
		sources = call.own
	}
	call.net, call.res, call.sources = net, res, sources
	call.vcs = max(res.VCs, 1)
	call.overrides = len(res.PairPath) > 0
	call.reach.sweep(net, res.Table.Dests())
	call.deps.reset(net.NumChannels(), call.vcs)
}

// release drops the call's inputs and keeps the rest for the next call.
func (call *checkCall) release() {
	call.net, call.res, call.sources = nil, nil, nil
	kept.Store(call)
}

// reachClasses answers "which nodes can reach destination d" for every
// destination of one call. Destinations that reach each other are reached
// by exactly the same nodes (if d and r reach each other, v reaches d iff
// v reaches r), so one reverse sweep serves a whole class of them; on a
// connected duplex network that is one sweep per call. One-way faults and
// disconnected components make more classes, each swept once.
type reachClasses struct {
	// class[v] > 0 names the class of v: the nodes that reach, and are
	// reached from, the first destination swept for it.
	class []int32
	// sets[class[v]-1][u]: u can reach v.
	sets  [][]bool
	queue []graph.NodeID
}

// sweep finds the classes of dests, reusing r's arrays.
func (r *reachClasses) sweep(net *graph.Network, dests []graph.NodeID) {
	csr := net.CSRView()
	n := csr.NumNodes()
	if len(r.class) != n {
		r.class = make([]int32, n)
	}
	clear(r.class)
	r.sets = r.sets[:0]
	for _, d := range dests {
		if r.class[d] != 0 || net.Degree(d) == 0 {
			continue
		}
		// Breadth-first over reversed channels: the nodes that reach d.
		var set []bool
		if k := len(r.sets); k < cap(r.sets) {
			set = r.sets[:k+1][k]
		}
		if len(set) != n {
			set = make([]bool, n)
		}
		clear(set)
		set[d] = true
		r.queue = append(r.queue[:0], d)
		for head := 0; head < len(r.queue); head++ {
			for _, c := range csr.In(r.queue[head]) {
				if from := csr.From[c]; !set[from] {
					set[from] = true
					r.queue = append(r.queue, from)
				}
			}
		}
		r.sets = append(r.sets, set)
		// Forward from d, inside the set: the nodes d reaches that also
		// reach d. Only they share d's set; a node that merely reaches d
		// may be reached by fewer nodes than d is.
		k := int32(len(r.sets))
		r.class[d] = k
		r.queue = append(r.queue[:0], d)
		for head := 0; head < len(r.queue); head++ {
			for _, c := range csr.Out(r.queue[head]) {
				if to := csr.To[c]; set[to] && r.class[to] == 0 {
					r.class[to] = k
					r.queue = append(r.queue, to)
				}
			}
		}
	}
}

// of returns the nodes that can reach the connected destination d.
func (r *reachClasses) of(d graph.NodeID) []bool { return r.sets[r.class[d]-1] }

// allLanes makes a walker take every destination, whatever its lane.
const allLanes = -1

// laneWalker walks owed pairs into the graph. Its Report fields count
// what it walked (Pairs, MaxHops, Deps, Steps); the marks let each pair
// add only what is new for its destination.
type laneWalker struct {
	*checkCall
	Report
	path []graph.ChannelID

	// epoch stamps the marks below; it advances per destination, so
	// nothing is cleared between destinations.
	epoch int32
	// settled[sl][v] == epoch: the table path from v to the current
	// destination has been walked to its end, validated and recorded for
	// service level sl; it is depth[v] hops long (the length does not
	// depend on sl). A node is marked only after its pair's walk
	// succeeded. A level's slice is allocated when first used.
	settled [256][]int32
	depth   []int32

	// Two walkers sit back to back in memory; this keeps the counters one
	// goroutine writes per pair off the cache line another reads.
	_ [64]byte
}

// walker returns the call's i-th walker with its counts zeroed and its
// arrays sized. Its stamp keeps growing from call to call, so no mark an
// earlier call left equals one this call writes; only when the stamp
// could wrap are the marks cleared.
func (call *checkCall) walker(i int) *laneWalker {
	if i == len(call.walkers) {
		call.walkers = append(call.walkers, new(laneWalker))
	}
	w, n := call.walkers[i], call.net.NumNodes()
	w.checkCall, w.Report = call, Report{}
	if len(w.depth) != n {
		w.depth = make([]int32, n)
	}
	if int64(w.epoch)+int64(len(call.res.Table.Dests())) >= 1<<31-1 {
		for _, s := range w.settled {
			clear(s)
		}
		w.epoch = 0
	}
	return w
}

// walkSharded walks every lane, each on one of workers goroutines that
// take the next lane when done with the last. A lane's walk writes only
// that lane's arrays of the graph, so the graph ends up exactly as one
// walker would have left it, successor order included. It returns the
// summed report, or nil if any walker met a violation.
func (call *checkCall) walkSharded(lanes []uint8, workers int) *Report {
	var next atomic.Int32
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		w := call.walker(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				l := int(next.Add(1)) - 1
				if l >= len(lanes) {
					return
				}
				if w.walk(int(lanes[l])) != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil
	}
	rep := &Report{}
	for _, w := range call.walkers[:workers] {
		rep.Pairs += w.Pairs
		rep.Deps += w.Deps
		rep.Steps += w.Steps
		rep.MaxHops = max(rep.MaxHops, w.MaxHops)
	}
	return rep
}

// walk adds the owed pairs of every destination on lane (allLanes: of
// every destination), in destination then source order, and stops at the
// first violation.
func (w *laneWalker) walk(lane int) error {
	for i, d := range w.res.Table.Dests() {
		if lane != allLanes && int(w.res.DestLayer[i]) != lane {
			continue
		}
		if w.net.Degree(d) == 0 {
			continue // destination disconnected by faults
		}
		reach := w.reach.of(d)
		w.epoch++
		for _, s := range w.sources {
			if s == d || !reach[s] {
				continue // cannot reach d (one-way faults); no path required
			}
			hops, err := w.addPair(s, d)
			if err != nil {
				return err
			}
			w.Pairs++
			w.MaxHops = max(w.MaxHops, hops)
		}
	}
	return nil
}

// addPair walks the owed pair s -> d, records its dependencies and
// returns its hop count. A lane outside the VC budget is an error, never
// folded onto the last lane.
func (w *laneWalker) addPair(s, d graph.NodeID) (int, error) {
	sl := w.res.Layer(s, d)
	explicit := false
	if w.overrides {
		_, explicit = w.res.PairPath[routing.PairKey(s, d)]
	}
	var settled []int32 // nil for a source-routed path: it shares no suffix
	if !explicit {
		if len(w.settled[sl]) != w.net.NumNodes() {
			w.settled[sl] = make([]int32, w.net.NumNodes())
		}
		settled = w.settled[sl]
	}
	path, err := routing.WalkUntil(w.net, w.res, s, d, w.path, settled, w.epoch)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	w.path = path
	prev, prevVL := graph.NoChannel, uint8(0)
	for i, c := range path {
		vl := w.res.VL(sl, c)
		if int(vl) >= w.vcs {
			return 0, fmt.Errorf("verify: path %d -> %d occupies VL %d on channel %d (hop %d), budget is %d VCs", s, d, vl, c, i, w.vcs)
		}
		if i > 0 {
			w.addDep(prev, prevVL, c, vl)
		}
		prev, prevVL = c, vl
	}
	hops := len(path)
	if explicit {
		return hops, nil
	}
	w.Steps += hops
	at := s
	if hops > 0 {
		at = w.net.Channel(path[hops-1]).To
	}
	if at != d {
		// The walk joined an earlier one at the settled node at: the rest
		// is on record, except the dependency across the junction.
		hops += int(w.depth[at])
		if prev != graph.NoChannel {
			c := w.res.Table.Next(at, d)
			w.Steps++
			w.addDep(prev, prevVL, c, w.res.VL(sl, c))
		}
	}
	for i, c := range path {
		from := w.net.Channel(c).From
		settled[from] = w.epoch
		w.depth[from] = int32(hops - i)
	}
	return hops, nil
}

// addDep records (a@la) -> (b@lb) once and counts it.
func (w *laneWalker) addDep(a graph.ChannelID, la uint8, b graph.ChannelID, lb uint8) {
	if w.deps.add(a, la, b, lb) {
		w.Deps++
	}
}

// depGraph is the dependency graph over virtual-channel vertices
// (channel, VL), kept flat: it holds no heap object per vertex. Each lane
// keeps three arrays (depLane): slot, one int32 per channel, names the
// node of the channel's vertex on that lane; nodes holds one entry per
// vertex a dependency leaves, with the heads of its first four
// dependencies in the order they were first recorded; deps holds the
// rest, chained per node in that order. A vertex no dependency leaves has
// no node, a lane nothing is recorded on has no slot array, and nodes and
// deps grow by fixed blocks that are never copied, so a graph's memory
// follows the dependencies it records. Kahn's pass keeps its counts in
// the nodes and its queue in the graph.
//
// A graph is kept from call to call. Each call, and walkSharded's
// sequential fallback, empties it with reset and fills it again, and
// nothing an earlier fill left is read before it is written: reset clears
// exactly the slots the nodes name, and Kahn's pass recounts every
// in-degree before it reads one.
type depGraph struct {
	vcs      int
	channels int
	lanes    []depLane
	queue    []laneNode // Kahn scratch
}

// laneNode is a node with its lane: a vertex.
type laneNode struct {
	n *depNode
	l uint8
}

// depLane is one lane's share of a depGraph. Only the walker holding the
// lane writes it; the padding keeps two lanes' headers, which sit back to
// back, off one cache line.
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
	c     int32             // its channel; its lane is the lane holding it
	n     int32             // its dependencies
	head  [inlineDeps]int32 // the head vertices of its first ones
	more  int32             // the rest: the first of them in the lane's deps, -1 if none
	indeg int32             // Kahn scratch: dependencies into it not yet removed
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

// depEdge is one dependency past a node's inline ones.
type depEdge struct {
	to   int32 // its head vertex
	next int32 // the source vertex's next dependency, -1 at the end
}

// blocks is an append-only array kept in fixed-size blocks of 64
// entries. Growing it allocates one block and copies nothing, where a
// large slice grown by append allocates four times its final size on the
// way. Entries do not move, and the blocks of a reset array are reused.
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
// vcs vertices. A lane's slot array is allocated at its first
// dependency, and dropped here if it has the wrong length; one kept is
// zero again, as reset clears the slots its nodes name.
func (g *depGraph) reset(channels, vcs int) {
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
	if vcs > len(all) {
		all = append(all, make([]depLane, vcs-len(all))...)
	}
	g.lanes, g.channels, g.vcs = all[:vcs], channels, vcs
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

// nodeOf is node for vertex v = c*vcs + l, with v's lane.
func (g *depGraph) nodeOf(v int32) (*depNode, uint8) {
	l := uint8(v % int32(g.vcs))
	return g.node(v/int32(g.vcs), l), l
}

// add records (a@la) -> (b@lb) and reports whether it was new. It writes
// lane la's arrays only. The dedup scan is short: a vertex's out-degree
// is bounded by the radix of its channel's head switch times the lanes.
func (g *depGraph) add(a graph.ChannelID, la uint8, b graph.ChannelID, lb uint8) bool {
	ln := &g.lanes[la]
	if len(ln.slot) == 0 {
		ln.slot = make([]int32, g.channels)
	}
	s := ln.slot[a]
	if s == 0 {
		s = ln.nodes.push(depNode{c: int32(a), more: -1}) + 1
		ln.slot[a] = s
	}
	n, to := ln.nodes.at(s-1), int32(int(b)*g.vcs+int(lb))
	for _, h := range n.head[:min(n.n, inlineDeps)] {
		if h == to {
			return false
		}
	}
	last := int32(-1)
	for e := n.more; e >= 0; {
		d := ln.deps.at(e)
		if d.to == to {
			return false
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
	return true
}

// cyclicLanes runs Kahn's algorithm and returns, ascending, the lanes of
// the vertices it cannot remove: those on a cycle or downstream of one.
// Only vertices with nodes take part; a vertex without one (a sink) is
// left over exactly when a left-over node has a dependency into it, so
// the lanes of those dependencies' heads complete the set.
func (g *depGraph) cyclicLanes() []int {
	for l := range g.lanes {
		nodes := &g.lanes[l].nodes
		for i := int32(0); i < nodes.n; i++ {
			nodes.at(i).indeg = 0
		}
	}
	for l := range g.lanes {
		ln := &g.lanes[l]
		for i := int32(0); i < ln.nodes.n; i++ {
			n := ln.nodes.at(i)
			for p := (succ{e: n.more}); ; {
				to, ok := ln.next(n, &p)
				if !ok {
					break
				}
				if t, _ := g.nodeOf(to); t != nil {
					t.indeg++
				}
			}
		}
	}
	queue := g.queue[:0]
	for l := range g.lanes {
		nodes := &g.lanes[l].nodes
		for i := int32(0); i < nodes.n; i++ {
			if n := nodes.at(i); n.indeg == 0 {
				queue = append(queue, laneNode{n, uint8(l)})
			}
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for p := (succ{e: v.n.more}); ; {
			to, ok := g.lanes[v.l].next(v.n, &p)
			if !ok {
				break
			}
			if t, l := g.nodeOf(to); t != nil {
				if t.indeg--; t.indeg == 0 {
					queue = append(queue, laneNode{t, l})
				}
			}
		}
	}
	g.queue = queue
	var cyclic [256]bool
	for l := range g.lanes {
		ln := &g.lanes[l]
		for i := int32(0); i < ln.nodes.n; i++ {
			n := ln.nodes.at(i)
			if n.indeg == 0 {
				continue // removed
			}
			cyclic[l] = true
			for p := (succ{e: n.more}); ; {
				to, ok := ln.next(n, &p)
				if !ok {
					break
				}
				cyclic[to%int32(g.vcs)] = true
			}
		}
	}
	var lanes []int
	for l, c := range cyclic {
		if c {
			lanes = append(lanes, l)
		}
	}
	return lanes
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
