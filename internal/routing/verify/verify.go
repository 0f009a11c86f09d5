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
	"sort"

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
// and the dependency across the junction are recorded. No state outlives
// the call.
func Check(net *graph.Network, res *routing.Result, sources []graph.NodeID) (*Report, error) {
	if sources == nil {
		sources = defaultSources(net)
	}
	rep := &Report{}
	dg := newInducedCDG(net, res)
	for _, d := range res.Table.Dests() {
		if net.Degree(d) == 0 {
			continue // destination disconnected by faults
		}
		dg.sweep(d)
		for _, s := range sources {
			if s == d || dg.reach[s] != dg.epoch {
				continue // cannot reach d (one-way faults); no path required
			}
			hops, err := dg.addPair(s, d)
			if err != nil {
				return rep, err
			}
			rep.Pairs++
			if hops > rep.MaxHops {
				rep.MaxHops = hops
			}
		}
	}
	rep.Deps, rep.Steps = dg.deps, dg.steps
	return rep, checkDeadlockFree(dg, rep)
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
// (channel*VCs + vl) induced by the owed pairs handed to addPair, and the
// per-destination marks that let each pair add only what is new.
type inducedCDG struct {
	net       *graph.Network
	res       *routing.Result
	vcs       int
	overrides bool // res has PairPath entries
	adj       [][]int32
	deps      int // distinct dependency edges
	steps     int
	path      []graph.ChannelID

	// epoch stamps the marks below; sweep advances it per destination, so
	// nothing is cleared between destinations.
	epoch int32
	// reach[v] == epoch: v can reach the current destination.
	reach []int32
	queue []graph.NodeID
	// settled[sl][v] == epoch: the table path from v to the current
	// destination has been walked to its end, validated and recorded for
	// service level sl; it is depth[v] hops long (the length does not
	// depend on sl). A node is marked only after its pair's walk
	// succeeded. A level's slice is allocated when first used.
	settled [256][]int32
	depth   []int32
}

func newInducedCDG(net *graph.Network, res *routing.Result) *inducedCDG {
	vcs := res.VCs
	if vcs < 1 {
		vcs = 1
	}
	return &inducedCDG{
		net: net, res: res, vcs: vcs,
		overrides: len(res.PairPath) > 0,
		adj:       make([][]int32, net.NumChannels()*vcs),
		reach:     make([]int32, net.NumNodes()),
		depth:     make([]int32, net.NumNodes()),
	}
}

// sweep starts destination d: a breadth-first sweep over reversed
// channels marks the nodes that can reach it.
func (g *inducedCDG) sweep(d graph.NodeID) {
	g.epoch++
	g.reach[d] = g.epoch
	g.queue = append(g.queue[:0], d)
	for head := 0; head < len(g.queue); head++ {
		for _, c := range g.net.In(g.queue[head]) {
			if from := g.net.Channel(c).From; g.reach[from] != g.epoch {
				g.reach[from] = g.epoch
				g.queue = append(g.queue, from)
			}
		}
	}
}

// addPair walks the owed pair s -> d, records its dependencies and
// returns its hop count. A lane outside the VC budget is an error, never
// folded onto the last lane.
func (g *inducedCDG) addPair(s, d graph.NodeID) (int, error) {
	sl := g.res.Layer(s, d)
	explicit := false
	if g.overrides {
		_, explicit = g.res.PairPath[routing.PairKey(s, d)]
	}
	var settled []int32 // nil for a source-routed path: it shares no suffix
	if !explicit {
		if g.settled[sl] == nil {
			g.settled[sl] = make([]int32, g.net.NumNodes())
		}
		settled = g.settled[sl]
	}
	path, err := routing.WalkUntil(g.net, g.res, s, d, g.path, settled, g.epoch)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	g.path = path
	prev := int32(-1)
	for i, c := range path {
		vl := g.res.VL(sl, c)
		if int(vl) >= g.vcs {
			return 0, fmt.Errorf("verify: path %d -> %d occupies VL %d on channel %d (hop %d), budget is %d VCs", s, d, vl, c, i, g.vcs)
		}
		v := int32(int(c)*g.vcs + int(vl))
		if i > 0 {
			g.addDep(prev, v)
		}
		prev = v
	}
	hops := len(path)
	if explicit {
		return hops, nil
	}
	g.steps += hops
	at := s
	if hops > 0 {
		at = g.net.Channel(path[hops-1]).To
	}
	if at != d {
		// The walk joined an earlier one at the settled node at: the rest
		// is on record, except the dependency across the junction.
		hops += int(g.depth[at])
		if prev >= 0 {
			c := g.res.Table.Next(at, d)
			g.steps++
			g.addDep(prev, int32(int(c)*g.vcs+int(g.res.VL(sl, c))))
		}
	}
	for i, c := range path {
		from := g.net.Channel(c).From
		settled[from] = g.epoch
		g.depth[from] = int32(hops - i)
	}
	return hops, nil
}

// addDep records a -> b once. The scan is short: a vertex's out-degree is
// bounded by the radix of its channel's head switch times the lanes.
func (g *inducedCDG) addDep(a, b int32) {
	for _, w := range g.adj[a] {
		if w == b {
			return
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.deps++
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
