package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/cdg"
	"repro/internal/dial"
	"repro/internal/graph"
)

// layerState carries the routing state of one virtual layer: its complete
// CDG, escape-path spanning tree, channel weights, and the per-destination
// Dijkstra scratch space.
type layerState struct {
	net  *graph.Network
	d    *cdg.Graph
	tree *graph.Tree
	opts Options

	// csr is the flat adjacency view of net the hot path walks.
	csr *graph.CSR

	// weight is the Dijkstra weight of every channel, updated after each
	// destination to balance paths (DFSSSP-style). Weights live on the
	// channel vertices of the complete CDG (§4.4).
	weight []float64

	// isSource marks nodes counted in weight updates (traffic sources).
	isSource []bool

	// Per-destination scratch, reset by resetDest.
	nodeDist    []float64
	chDist      []float64
	usedChannel []graph.ChannelID
	popped      []bool
	// children[u] lists channels (u,x) that were accepted as usedChannel
	// of x at some point; entries are validated lazily against
	// usedChannel[x] before use.
	children [][]graph.ChannelID
	// altStack[v] holds previously accepted (then overwritten) channels
	// into v — the backtracking stack of §4.6.2.
	altStack [][]graph.ChannelID

	// dq is the Dijkstra priority queue, popping in (key, item) order.
	// Nue's hop weights start at 1 and only grow (updateWeights adds
	// non-negative increments), which keeps every insert at or above the
	// dial queue's extraction watermark; the queue panics otherwise.
	dq *dial.Queue

	// byDistScratch and cntScratch are reused across weight updates;
	// islandScratch across island scans; orderScratch and seenScratch
	// across escape-fallback table fills.
	byDistScratch []graph.NodeID
	cntScratch    []int32
	islandScratch []graph.NodeID
	orderScratch  []graph.NodeID
	seenScratch   []bool

	stats *Stats
}

// Stats aggregates counters across a Nue run.
type Stats struct {
	// EscapeFallbacks counts destinations routed entirely over the escape
	// paths after an unsolvable impasse.
	EscapeFallbacks int
	// IslandsResolved counts impasses solved by local backtracking.
	IslandsResolved int
	// CycleSearches and BlockedEdges aggregate the CDG counters.
	CycleSearches int
	BlockedEdges  int
	// EscapeDeps counts initial channel dependencies over all layers.
	EscapeDeps int
	// DijkstraRuns counts modified-Dijkstra runs (one per destination
	// handed to routeDest, including runs that end in an escape
	// fallback).
	DijkstraRuns int
	// ShortcutTakes counts settled nodes improved through a former
	// island (§4.6.3); BlockedSkips counts blocked complete-CDG edges
	// skipped during relaxation; EdgeUses aggregates the CDG's
	// TryUseEdge attempts.
	ShortcutTakes int
	BlockedSkips  int
	EdgeUses      int
}

// layerStatePool recycles layerState scratch (per-layer arrays and the
// dial queue) across layers, destinations and Route calls, so the hot path
// stops allocating per layer. States for differently-sized networks simply
// regrow their slices on first use.
var layerStatePool = sync.Pool{New: func() any { return new(layerState) }}

func newLayerState(net *graph.Network, d *cdg.Graph, tree *graph.Tree, opts Options, isSource []bool, stats *Stats) *layerState {
	nn, nc := net.NumNodes(), net.NumChannels()
	ls := layerStatePool.Get().(*layerState)
	ls.net = net
	ls.d = d
	ls.tree = tree
	ls.opts = opts
	ls.isSource = isSource
	ls.stats = stats
	ls.weight = growFloats(ls.weight, nc)
	ls.nodeDist = growFloats(ls.nodeDist, nn)
	ls.chDist = growFloats(ls.chDist, nc)
	ls.usedChannel = growChannels(ls.usedChannel, nn)
	ls.popped = growBools(ls.popped, nn)
	ls.children = growChannelLists(ls.children, nn)
	ls.altStack = growChannelLists(ls.altStack, nn)
	ls.csr = net.CSRView()
	if ls.dq == nil || ls.dq.Cap() < nc {
		ls.dq = dial.New(nc)
	} else {
		ls.dq.Reset()
	}
	ls.byDistScratch = ls.byDistScratch[:0]
	if cap(ls.cntScratch) < nn {
		ls.cntScratch = make([]int32, nn)
	} else {
		ls.cntScratch = ls.cntScratch[:nn]
	}
	for c := range ls.weight {
		ls.weight[c] = 1
	}
	return ls
}

// release returns the state's scratch to the pool. The referenced network,
// CDG and tree are dropped so pooled states never pin a routed fabric.
func (ls *layerState) release() {
	ls.net, ls.d, ls.tree, ls.stats = nil, nil, nil, nil
	ls.isSource = nil
	ls.csr = nil
	layerStatePool.Put(ls)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growChannels(s []graph.ChannelID, n int) []graph.ChannelID {
	if cap(s) < n {
		return make([]graph.ChannelID, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growChannelLists(s [][]graph.ChannelID, n int) [][]graph.ChannelID {
	if cap(s) < n {
		return make([][]graph.ChannelID, n)
	}
	return s[:n]
}

func (ls *layerState) resetDest() {
	for i := range ls.nodeDist {
		ls.nodeDist[i] = math.Inf(1)
		ls.usedChannel[i] = graph.NoChannel
		ls.popped[i] = false
		ls.children[i] = ls.children[i][:0]
		ls.altStack[i] = ls.altStack[i][:0]
	}
	for i := range ls.chDist {
		ls.chDist[i] = math.Inf(1)
	}
	ls.dq.Reset()
}

// routeDest computes the deadlock-free paths from every node toward dest
// (Algorithm 1 plus the optimizations of §4.6.2/4.6.3) and reports the
// per-node parent channel in *recorded* orientation: parent[v] is the
// channel (w, v) of the Dijkstra tree grown from dest, so the traffic
// next hop of v is its reverse. fellBack reports an escape-path fallback,
// in which case parent is nil and callers must route dest over the
// spanning tree.
func (ls *layerState) routeDest(dest graph.NodeID) (parent []graph.ChannelID, fellBack bool) {
	ls.stats.DijkstraRuns++
	ls.resetDest()
	ls.nodeDist[dest] = 0
	// Seed: the out-channels of dest play the role of the fake channel
	// c_0 (switch) or the unique channel (terminal) of Algorithm 1.
	for _, c := range ls.csr.Out(dest) {
		v := ls.csr.To[c]
		nd := ls.weight[c]
		if nd >= ls.nodeDist[v] {
			continue
		}
		ls.d.SeedChannel(c)
		ls.commit(c, v, nd)
	}
	for {
		ls.drainHeap()
		islands := ls.islands(dest)
		if len(islands) == 0 {
			break
		}
		if !ls.opts.Backtracking {
			ls.stats.EscapeFallbacks++
			return nil, true
		}
		resolved := false
		for _, v := range islands {
			if ls.backtrack(v) {
				ls.stats.IslandsResolved++
				resolved = true
				break // continue Dijkstra into the island cluster first
			}
		}
		if !resolved {
			// Unsolvable impasse: fall back to the escape paths for this
			// entire destination (§4.6.2, first option as last resort).
			ls.stats.EscapeFallbacks++
			return nil, true
		}
	}
	return ls.usedChannel, false
}

// drainHeap runs the main loop of Algorithm 1.
func (ls *layerState) drainHeap() {
	for {
		item, ok := ls.dq.ExtractMin()
		if !ok {
			return
		}
		cp := graph.ChannelID(item)
		v := ls.csr.To[cp]
		if ls.usedChannel[v] != cp {
			continue // stale entry; v was re-reached over a better channel
		}
		ls.popped[v] = true
		ls.relaxFrom(cp)
	}
}

// relaxFrom relaxes all complete-CDG successors of the settled channel cp.
func (ls *layerState) relaxFrom(cp graph.ChannelID) {
	succ := ls.d.Succ(cp)
	base := ls.d.SuccBase(cp)
	for i, cq := range succ {
		e := base + int32(i)
		if ls.d.EdgeState(e) == cdg.Blocked {
			ls.stats.BlockedSkips++
			continue
		}
		ls.tryAccept(cp, e, cq)
	}
}

// tryAccept attempts to make cq the used channel of its head node via the
// dependency (cp, cq), honoring the cycle-freedom of the complete CDG and
// the destination-based property. Line 13-21 of Algorithm 1, extended with
// the child re-check that keeps already-routed subtrees consistent when a
// settled node is improved through a former island (§4.6.3 shortcuts).
func (ls *layerState) tryAccept(cp graph.ChannelID, e int32, cq graph.ChannelID) bool {
	v := ls.csr.To[cq]
	nd := ls.chDist[cp] + ls.weight[cq]
	if nd >= ls.nodeDist[v] {
		return false
	}
	if ls.popped[v] && !ls.opts.Shortcuts {
		// Without the §4.6.3 optimization, settled nodes are final.
		return false
	}
	if !ls.d.TryUseEdgeByID(e, cp, cq) {
		return false
	}
	if !ls.recheckChildren(cq, v) {
		return false
	}
	if ls.popped[v] {
		ls.stats.ShortcutTakes++
	}
	ls.commit(cq, v, nd)
	return true
}

// recheckChildren verifies that switching node v's used channel to cq
// keeps every existing downstream dependency of v valid: for each tree
// child channel (v, x), the dependency (cq, (v,x)) must be usable without
// closing a cycle. Nodes without children (the common case) pass
// immediately.
func (ls *layerState) recheckChildren(cq graph.ChannelID, v graph.NodeID) bool {
	kids := ls.children[v]
	if len(kids) == 0 {
		return true
	}
	// Compact stale entries while checking.
	valid := kids[:0]
	ok := true
	for _, cx := range kids {
		if ls.usedChannel[ls.csr.To[cx]] != cx {
			continue // no longer a tree child
		}
		valid = append(valid, cx)
		if !ok {
			continue
		}
		e := ls.d.EdgeID(cq, cx)
		if e < 0 {
			// (cq, cx) is a u-turn: the proposed parent channel comes from
			// the child's own node, so the reroute would fold the path
			// back onto itself. Reject it.
			ok = false
			continue
		}
		if !ls.d.TryUseEdgeByID(e, cq, cx) {
			ok = false
		}
	}
	ls.children[v] = valid
	return ok
}

// commit records cq as the used channel of node v at distance nd.
func (ls *layerState) commit(cq graph.ChannelID, v graph.NodeID, nd float64) {
	if old := ls.usedChannel[v]; old != graph.NoChannel {
		ls.altStack[v] = append(ls.altStack[v], old)
	}
	ls.usedChannel[v] = cq
	ls.nodeDist[v] = nd
	ls.chDist[cq] = nd
	ls.dq.InsertOrDecrease(int(cq), nd)
	u := ls.csr.From[cq]
	ls.children[u] = append(ls.children[u], cq)
}

// islands returns nodes that the layer's spanning tree reaches but the
// current routing step does not (§4.6.2). The returned slice is scratch,
// valid until the next call.
func (ls *layerState) islands(dest graph.NodeID) []graph.NodeID {
	out := ls.islandScratch[:0]
	defer func() { ls.islandScratch = out }()
	for n := 0; n < ls.net.NumNodes(); n++ {
		v := graph.NodeID(n)
		if v == dest || ls.usedChannel[v] != graph.NoChannel {
			continue
		}
		if ls.tree.Dist[v] < 0 {
			continue // disconnected from the network component being routed
		}
		out = append(out, v)
	}
	return out
}

// backtrack implements the local backtracking of §4.6.2: it searches the
// 2-hop surroundings of island node v for an alternative route. For every
// reached in-neighbor u of v, every previously accepted (then overwritten)
// channel a = (w,u) on u's stack is an alternative way into u; if the
// dependencies (usedChannel[w], a), (a, (u,v)) — and (a, child) for every
// existing child of u — can be used without closing a cycle, u is
// re-routed over a and v becomes reachable.
// The cheapest valid alternative wins.
func (ls *layerState) backtrack(v graph.NodeID) bool {
	type cand struct {
		a, c graph.ChannelID
		dist float64
	}
	var cands []cand
	for _, c := range ls.csr.In(v) {
		u := ls.csr.From[c]
		if math.IsInf(ls.nodeDist[u], 1) {
			continue
		}
		for _, a := range ls.altStack[u] {
			cands = append(cands, cand{a: a, c: c, dist: ls.chDist[a] + ls.weight[c]})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	for _, cd := range cands {
		u, w := ls.csr.From[cd.c], ls.csr.From[cd.a]
		reroute := ls.usedChannel[u] != cd.a
		e := ls.d.EdgeID(cd.a, cd.c)
		if e < 0 || ls.d.EdgeState(e) == cdg.Blocked {
			continue
		}
		if !ls.d.TryUseEdgeByID(e, cd.a, cd.c) {
			continue
		}
		if !ls.recheckChildren(cd.a, u) {
			continue
		}
		if pw := ls.usedChannel[w]; reroute && pw != graph.NoChannel {
			// a was accepted behind the channel w used at the time; a
			// §4.6.3 shortcut may have re-routed w since, and only w's
			// tree children were re-checked then.
			e := ls.d.EdgeID(pw, cd.a)
			if e < 0 || !ls.d.TryUseEdgeByID(e, pw, cd.a) {
				continue
			}
		}
		// Re-route u over the alternative channel a (its distance grows,
		// which only affects balancing, not correctness).
		if reroute {
			ls.children[w] = append(ls.children[w], cd.a)
			ls.altStack[u] = append(ls.altStack[u], ls.usedChannel[u])
			ls.usedChannel[u] = cd.a
			ls.nodeDist[u] = ls.chDist[cd.a]
			if !ls.dq.Contains(int(cd.a)) {
				// a may have been skipped as stale; give it a chance to
				// relax its own successors again.
				ls.dq.Insert(int(cd.a), ls.chDist[cd.a])
			}
		}
		ls.commit(cd.c, v, cd.dist)
		return true
	}
	return false
}

// updateWeights adds the load of the paths toward dest to each used
// channel's weight (recorded orientation), normalized by the source count
// like routing.AddPathLoad so balancing pressure stays relative and path
// stretch bounded.
func (ls *layerState) updateWeights(dest graph.NodeID, parent []graph.ChannelID) {
	nodes := ls.byDistScratch[:0]
	for n := 0; n < ls.net.NumNodes(); n++ {
		if parent[n] != graph.NoChannel {
			nodes = append(nodes, graph.NodeID(n))
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return ls.nodeDist[nodes[i]] > ls.nodeDist[nodes[j]] })
	ls.byDistScratch = nodes

	cnt := ls.cntScratch
	for i := range cnt {
		cnt[i] = 0
	}
	totalSources := 0
	for _, n := range nodes {
		if ls.isSource[n] && n != dest {
			cnt[n]++
			totalSources++
		}
	}
	if totalSources == 0 {
		return
	}
	scale := 1.0 / float64(totalSources)
	for _, n := range nodes {
		c := parent[n]
		ls.weight[c] += float64(cnt[n]) * scale
		cnt[ls.csr.From[c]] += cnt[n]
	}
}

// updateWeightsEscape performs the weight update for a destination that
// fell back to the escape paths: every source's tree path contributes to
// the recorded-orientation mirror channels. Instead of materializing one
// TreePath per source (which dominated the allocation profile), the
// contributions are aggregated per tree link: the link between node x
// and its parent lies on the path source -> dest exactly when source and
// dest are on opposite sides of the link, and the travel direction is
// toward whichever side holds dest. One subtree-count pass over the BFS
// order prices every link in O(|N|) with zero allocations.
func (ls *layerState) updateWeightsEscape(dest graph.NodeID) {
	tree, net := ls.tree, ls.net
	cnt := ls.cntScratch
	for i := range cnt {
		cnt[i] = 0
	}
	totalSources := int32(0)
	for n := 0; n < net.NumNodes(); n++ {
		v := graph.NodeID(n)
		if ls.isSource[v] && v != dest && tree.Dist[v] >= 0 {
			cnt[v] = 1
			totalSources++
		}
	}
	if totalSources == 0 {
		return
	}
	scale := 1.0 / float64(totalSources)
	// cnt[x] becomes the number of sources in x's subtree (children before
	// parents in reverse BFS order).
	for i := len(tree.Order) - 1; i >= 1; i-- {
		x := tree.Order[i]
		if p := tree.ParentNode(x); p != graph.NoNode {
			cnt[p] += cnt[x]
		}
	}
	// Walk dest's ancestor chain so destSide can be answered per node.
	// seenScratch[x] marks x as an ancestor-or-self of dest.
	seen := ls.seenScratch
	if cap(seen) < net.NumNodes() {
		seen = make([]bool, net.NumNodes())
		ls.seenScratch = seen
	} else {
		seen = seen[:net.NumNodes()]
		for i := range seen {
			seen[i] = false
		}
	}
	for x := dest; x != graph.NoNode; x = tree.ParentNode(x) {
		seen[x] = true
	}
	for i := 1; i < len(tree.Order); i++ {
		x := tree.Order[i]
		down := tree.Parent[x] // channel (parent(x), x)
		destBelow := seen[x]   // dest inside x's subtree?
		var uses int32
		var traveled graph.ChannelID
		if destBelow {
			// Sources outside the subtree travel parent -> x over `down`.
			uses = totalSources - cnt[x]
			traveled = down
		} else {
			// Sources inside the subtree travel x -> parent over the
			// reverse of `down`.
			uses = cnt[x]
			traveled = net.Channel(down).Reverse
		}
		if uses > 0 {
			ls.weight[net.Channel(traveled).Reverse] += float64(uses) * scale
		}
	}
}
