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
	"sort"
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
// one meets a violation the graph is dropped and the call runs again on
// one goroutine, so the error, the counts that come with it and "first
// violation in (destination, source) order" are always the sequential
// ones. Report and error are the same for every GOMAXPROCS; no state
// outlives the call.
func Check(net *graph.Network, res *routing.Result, sources []graph.NodeID) (*Report, error) {
	if sources == nil {
		sources = defaultSources(net)
	}
	dg := newInducedCDG(net, res, sources)
	lanes := destLanes(res)
	if workers := min(runtime.GOMAXPROCS(0), len(lanes)); workers > 1 {
		if rep := dg.walkSharded(lanes, workers); rep != nil {
			return rep, checkDeadlockFree(dg, rep)
		}
		dg.adj = make([][]int32, len(dg.adj))
	}
	w := dg.newWalker()
	if err := w.walk(allLanes); err != nil {
		return &Report{Pairs: w.Pairs, MaxHops: w.MaxHops}, err
	}
	rep := w.Report // a copy: the walker's marks end with the call
	return &rep, checkDeadlockFree(dg, &rep)
}

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

func defaultSources(net *graph.Network) []graph.NodeID {
	if net.NumTerminals() > 0 {
		// Keep only connected terminals (fault injection may orphan some).
		var out []graph.NodeID
		for _, t := range net.Terminals() {
			if net.Degree(t) > 0 {
				out = append(out, t)
			}
		}
		return out
	}
	var out []graph.NodeID
	for n := 0; n < net.NumNodes(); n++ {
		if net.Degree(graph.NodeID(n)) > 0 {
			out = append(out, graph.NodeID(n))
		}
	}
	return out
}

// checkDeadlockFree checks the induced dependency graph for cycles.
func checkDeadlockFree(dg *inducedCDG, rep *Report) error {
	cyclic := cyclicVertices(len(dg.adj), dg.adj)
	if len(cyclic) == 0 {
		rep.DeadlockFree = true
		return nil
	}
	vlSet := map[int]bool{}
	for _, v := range cyclic {
		vlSet[int(v)%dg.vcs] = true
	}
	for vl := range vlSet {
		rep.CyclicVLs = append(rep.CyclicVLs, vl)
	}
	sort.Ints(rep.CyclicVLs)
	return fmt.Errorf("verify: cyclic channel dependency graph on VLs %v (deadlock possible)", rep.CyclicVLs)
}

// inducedCDG is the dependency graph over virtual-channel vertices
// (channel*VCs + vl) induced by the owed pairs its walkers add, with the
// inputs of the call every walker reads.
type inducedCDG struct {
	net       *graph.Network
	res       *routing.Result
	sources   []graph.NodeID
	vcs       int
	overrides bool // res has PairPath entries
	reach     *reachClasses
	// adj[v] is written only by the walker that holds v's lane.
	adj [][]int32
}

func newInducedCDG(net *graph.Network, res *routing.Result, sources []graph.NodeID) *inducedCDG {
	vcs := res.VCs
	if vcs < 1 {
		vcs = 1
	}
	return &inducedCDG{
		net: net, res: res, sources: sources, vcs: vcs,
		overrides: len(res.PairPath) > 0,
		reach:     sweepReach(net, res.Table.Dests()),
		adj:       make([][]int32, net.NumChannels()*vcs),
	}
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
	sets [][]bool
}

func sweepReach(net *graph.Network, dests []graph.NodeID) *reachClasses {
	csr := net.CSRView()
	r := &reachClasses{class: make([]int32, csr.NumNodes())}
	var queue []graph.NodeID
	for _, d := range dests {
		if r.class[d] != 0 || net.Degree(d) == 0 {
			continue
		}
		// Breadth-first over reversed channels: the nodes that reach d.
		set := make([]bool, csr.NumNodes())
		set[d] = true
		queue = append(queue[:0], d)
		for head := 0; head < len(queue); head++ {
			for _, c := range csr.In(queue[head]) {
				if from := csr.From[c]; !set[from] {
					set[from] = true
					queue = append(queue, from)
				}
			}
		}
		r.sets = append(r.sets, set)
		// Forward from d, inside the set: the nodes d reaches that also
		// reach d. Only they share d's set; a node that merely reaches d
		// may be reached by fewer nodes than d is.
		k := int32(len(r.sets))
		r.class[d] = k
		queue = append(queue[:0], d)
		for head := 0; head < len(queue); head++ {
			for _, c := range csr.Out(queue[head]) {
				if to := csr.To[c]; set[to] && r.class[to] == 0 {
					r.class[to] = k
					queue = append(queue, to)
				}
			}
		}
	}
	return r
}

// of returns the nodes that can reach the connected destination d.
func (r *reachClasses) of(d graph.NodeID) []bool { return r.sets[r.class[d]-1] }

// allLanes makes a walker take every destination, whatever its lane.
const allLanes = -1

// laneWalker walks owed pairs into the graph. Its Report fields count
// what it walked (Pairs, MaxHops, Deps, Steps); the marks let each pair
// add only what is new for its destination.
type laneWalker struct {
	*inducedCDG
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

func (g *inducedCDG) newWalker() *laneWalker {
	return &laneWalker{inducedCDG: g, depth: make([]int32, g.net.NumNodes())}
}

// walkSharded walks every lane, each on one of workers goroutines that
// take the next lane when done with the last. A lane's walk appends only
// to the vertices of that lane, so the graph ends up exactly as one
// walker would have left it, adjacency order included. It returns the
// summed report, or nil if any walker met a violation.
func (g *inducedCDG) walkSharded(lanes []uint8, workers int) *Report {
	walkers := make([]*laneWalker, workers)
	var next atomic.Int32
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := range walkers {
		w := g.newWalker()
		walkers[i] = w
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
	for _, w := range walkers {
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
		if w.settled[sl] == nil {
			w.settled[sl] = make([]int32, w.net.NumNodes())
		}
		settled = w.settled[sl]
	}
	path, err := routing.WalkUntil(w.net, w.res, s, d, w.path, settled, w.epoch)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	w.path = path
	prev := int32(-1)
	for i, c := range path {
		vl := w.res.VL(sl, c)
		if int(vl) >= w.vcs {
			return 0, fmt.Errorf("verify: path %d -> %d occupies VL %d on channel %d (hop %d), budget is %d VCs", s, d, vl, c, i, w.vcs)
		}
		v := int32(int(c)*w.vcs + int(vl))
		if i > 0 {
			w.addDep(prev, v)
		}
		prev = v
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
		if prev >= 0 {
			c := w.res.Table.Next(at, d)
			w.Steps++
			w.addDep(prev, int32(int(c)*w.vcs+int(w.res.VL(sl, c))))
		}
	}
	for i, c := range path {
		from := w.net.Channel(c).From
		settled[from] = w.epoch
		w.depth[from] = int32(hops - i)
	}
	return hops, nil
}

// addDep records a -> b once. The scan is short: a vertex's out-degree is
// bounded by the radix of its channel's head switch times the lanes.
func (w *laneWalker) addDep(a, b int32) {
	for _, x := range w.adj[a] {
		if x == b {
			return
		}
	}
	w.adj[a] = append(w.adj[a], b)
	w.Deps++
}

// cyclicVertices returns the vertices left after Kahn's algorithm, i.e.
// those participating in (or downstream-locked behind) a cycle.
func cyclicVertices(nv int, adj [][]int32) []int32 {
	indeg := make([]int32, nv)
	for _, succ := range adj {
		for _, b := range succ {
			indeg[b]++
		}
	}
	var queue []int32
	removed := make([]bool, nv)
	for v := 0; v < nv; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
			removed[v] = true
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, b := range adj[v] {
			indeg[b]--
			if indeg[b] == 0 && !removed[b] {
				removed[b] = true
				queue = append(queue, b)
			}
		}
	}
	var cyc []int32
	for v := 0; v < nv; v++ {
		if !removed[v] && (len(adj[v]) > 0 || indeg[v] > 0) {
			cyc = append(cyc, int32(v))
		}
	}
	return cyc
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
