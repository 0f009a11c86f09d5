// Package centrality implements Brandes' betweenness centrality algorithm
// and the convex subgraph of Definition 8, used by Nue to pick the escape
// path root node (§4.3 of the paper).
package centrality

import (
	"sync"

	"repro/internal/freelist"
	"repro/internal/graph"
	"repro/internal/par"
)

// ConvexSubgraph returns the node set N^H of the convex subgraph for the
// destination set dests (Definition 8): all destinations plus every node
// that is an intermediate node of at least one shortest path between two
// destinations, in ascending order. Runs in O(|dests| * (|N| + |C|)) and
// allocates only the set it returns.
func ConvexSubgraph(g *graph.Network, dests []graph.NodeID) []graph.NodeID {
	sc := scratches.Get()
	defer scratches.Put(sc)
	return append([]graph.NodeID(nil), sc.hull(g, dests)...)
}

// hull computes ConvexSubgraph(g, dests) into sc.nodes.
func (sc *scratch) hull(g *graph.Network, dests []graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	inHull, isDest := freelist.Grow(sc.inHull, n), freelist.Grow(sc.isDest, n)
	clear(inHull)
	clear(isDest)
	for _, d := range dests {
		isDest[d] = true
		inHull[d] = true
	}
	// One breadth-first scratch for all destinations: dist is -1 and
	// marked false outside a sweep, and a sweep resets what it reached.
	marked := freelist.Grow(sc.marked, n)
	clear(marked)
	dist := freelist.Grow(sc.hullDist, n)
	for i := range dist {
		dist[i] = -1
	}
	order := freelist.Grow(sc.hullOrder, n)[:0]
	csr := g.CSRView()
	for _, d := range dests {
		dist[d] = 0
		order = append(order[:0], d)
		for head := 0; head < len(order); head++ {
			u := order[head]
			for _, c := range csr.Out(u) {
				if v := csr.To[c]; dist[v] < 0 {
					dist[v] = dist[u] + 1
					order = append(order, v)
				}
			}
		}
		// Backward sweep: a node lies on a shortest path from d to some
		// destination iff it is a destination itself or a BFS-predecessor
		// of such a node. Order is reverse BFS (decreasing distance).
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			if !(isDest[v] || marked[v]) {
				continue
			}
			inHull[v] = true
			if dist[v] == 0 {
				continue
			}
			// Mark all predecessors on shortest paths (neighbors one hop
			// closer to d).
			for _, c := range csr.In(v) {
				if p := csr.From[c]; dist[p] == dist[v]-1 {
					marked[p] = true
				}
			}
		}
		for _, v := range order {
			dist[v] = -1
			marked[v] = false
		}
	}
	hull := freelist.Grow(sc.sub.nodes, n)[:0]
	for v, in := range inHull {
		if in {
			hull = append(hull, graph.NodeID(v))
		}
	}
	sc.inHull, sc.isDest, sc.marked, sc.hullDist, sc.hullOrder = inHull, isDest, marked, dist, order
	sc.sub.nodes = hull
	return hull
}

// betweennessShard is the number of source nodes per reduction shard.
// Shard boundaries — and therefore the floating-point summation order of
// per-source dependencies into the result — depend only on the source set,
// never on the worker count, so BetweennessN is bit-identical for every
// value of workers.
const betweennessShard = 64

// BetweennessN computes Brandes' betweenness centrality for every node of
// the subgraph of g induced by the node set sub (nil means all nodes).
// The graph is treated as unweighted and parallel channels are counted
// once. The result maps only nodes of the subgraph; other entries are
// zero. Runs in O(|sub| * (|N| + |C|)).
//
// It runs on the given number of workers (0 or negative means
// GOMAXPROCS, as par.Workers resolves it). The source nodes are sharded
// into fixed-size blocks; par.For runs the blocks, each accumulating its
// dependencies into a private buffer, and the buffers are committed into
// the result in block order, so the output is bit-identical regardless of
// workers. With one worker it allocates only the result.
func BetweennessN(g *graph.Network, sub []graph.NodeID, workers int) []float64 {
	n := g.NumNodes()
	sc := scratches.Get()
	defer scratches.Put(sc)
	in := freelist.Grow(sc.inHull, n)
	sc.inHull = in
	for i := range in {
		in[i] = sub == nil
	}
	for _, s := range sub {
		in[s] = true
	}
	nodes := freelist.Grow(sc.sub.nodes, n)[:0]
	for v, ok := range in {
		if ok {
			nodes = append(nodes, graph.NodeID(v))
		}
	}
	sc.sub.nodes = nodes
	local := sc.betweenness(g.CSRView(), workers)
	cb := make([]float64, n)
	for i, v := range nodes {
		cb[v] = local[i]
	}
	return cb
}

// scratch is the working memory of one root choice, recycled between
// calls: the marks and search state of the convex hull over the whole
// network, the subgraph Brandes runs on, and the single-source state of
// one worker, all but the hull's sized by the subgraph.
type scratch struct {
	inHull, isDest, marked []bool
	hullDist               []int32
	hullOrder              []graph.NodeID
	local                  []int32 // NodeID -> index in sub.nodes, -1 outside
	seen                   []int32 // per subgraph node, the last row of sub.adj listing it
	sub                    subgraph
	cb                     []float64 // centrality per subgraph node

	// One worker's single-source state, in subgraph indices.
	sigma, delta []float64
	dist, order  []int32
	npred, preds []int32   // preds[sub.predOff[v]:][:npred[v]] are v's predecessors
	partial      []float64 // one shard's centrality contribution
}

// subgraph is the subgraph of a network induced by a node set, in local
// indices: node i is nodes[i], and nodes ascend, so local order is NodeID
// order. adj[off[i]:off[i+1]] lists node i's out-neighbours inside the
// set once each, in the order of their first channel in CSR.Out, which is
// the order a search over the network meets them. predOff[i] is where
// node i's predecessors start in a worker's preds: room for one per
// in-neighbour inside the set.
type subgraph struct {
	nodes    []graph.NodeID
	off, adj []int32
	predOff  []int32
}

// scratches recycles scratch between calls.
var scratches freelist.List[scratch]

// induce builds sc.sub's adjacency for sc.sub.nodes.
func (sc *scratch) induce(csr *graph.CSR) *subgraph {
	sg := &sc.sub
	n, h := csr.NumNodes(), len(sg.nodes)
	local := freelist.Grow(sc.local, n)
	for i := range local {
		local[i] = -1
	}
	for i, v := range sg.nodes {
		local[v] = int32(i)
	}
	off, predOff, seen := freelist.Grow(sg.off, h+1), freelist.Grow(sg.predOff, h+1), freelist.Grow(sc.seen, h)
	clear(predOff)
	for i := range seen {
		seen[i] = -1
	}
	adj := sg.adj[:0]
	for i, u := range sg.nodes {
		off[i] = int32(len(adj))
		for _, c := range csr.Out(u) {
			j := local[csr.To[c]]
			if j < 0 || seen[j] == int32(i) {
				continue // outside, or a parallel channel to the same neighbour
			}
			seen[j] = int32(i)
			adj = append(adj, j)
			predOff[j+1]++
		}
	}
	off[h] = int32(len(adj))
	for i := 0; i < h; i++ {
		predOff[i+1] += predOff[i]
	}
	sc.local, sc.seen = local, seen
	sg.off, sg.adj, sg.predOff = off, adj, predOff
	return sg
}

// betweenness computes the centrality of every node of the subgraph
// induced by sc.sub.nodes, by local index, into sc.cb.
func (sc *scratch) betweenness(csr *graph.CSR, workers int) []float64 {
	sg := sc.induce(csr)
	h := len(sg.nodes)
	cb := freelist.Grow(sc.cb, h)
	clear(cb)
	sc.cb = cb
	numShards := (h + betweennessShard - 1) / betweennessShard
	workers = min(par.Workers(workers), numShards)
	if workers <= 1 {
		for s := 0; s < numShards; s++ {
			sc.shard(sg, s*betweennessShard, min((s+1)*betweennessShard, h))
			for i, v := range sc.partial {
				cb[i] += v
			}
		}
		return cb
	}

	// Each shard runs on its own scratch and commits its partial sums
	// strictly in shard order (ordered-commit pipeline): the reduction
	// order is a function of the shard boundaries alone. par.For claims
	// shards in ascending order, so the shard a commit waits for is
	// always running.
	var mu sync.Mutex
	nextCommit := 0
	cond := sync.NewCond(&mu)
	par.For(workers, numShards, func(s int) {
		w := scratches.Get()
		defer scratches.Put(w)
		w.shard(sg, s*betweennessShard, min((s+1)*betweennessShard, h))
		mu.Lock()
		for nextCommit != s {
			cond.Wait()
		}
		for i, v := range w.partial {
			cb[i] += v
		}
		nextCommit++
		cond.Broadcast()
		mu.Unlock()
	})
	return cb
}

// shard accumulates the dependencies of sources lo..hi-1 of sg into
// w.partial.
func (w *scratch) shard(sg *subgraph, lo, hi int) {
	h := len(sg.nodes)
	w.sigma, w.delta, w.partial = freelist.Grow(w.sigma, h), freelist.Grow(w.delta, h), freelist.Grow(w.partial, h)
	w.dist, w.order, w.npred = freelist.Grow(w.dist, h), freelist.Grow(w.order, h), freelist.Grow(w.npred, h)
	w.preds = freelist.Grow(w.preds, int(sg.predOff[h]))
	clear(w.partial)
	for src := lo; src < hi; src++ {
		w.oneSource(sg, int32(src))
	}
}

// oneSource runs the single-source phase of Brandes' algorithm from src
// and accumulates the dependencies into w.partial. The search meets
// neighbours in the network's CSR.Out order and records each node's
// predecessors in the order it meets them, so every σ and every sum into
// a δ is formed in the same order as a search over the whole network's
// channels would form it: the shard sums, and the centralities, are bit
// for bit those of that search. Predecessors come from the search itself,
// never from out-neighbours, which differ from in-neighbours where a
// channel's reverse has failed.
func (w *scratch) oneSource(sg *subgraph, src int32) {
	h := len(sg.nodes)
	// Single-source shortest path counting (BFS).
	for i := 0; i < h; i++ {
		w.sigma[i] = 0
		w.dist[i] = -1
		w.delta[i] = 0
		w.npred[i] = 0
	}
	w.sigma[src] = 1
	w.dist[src] = 0
	order := append(w.order[:0], src)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range sg.adj[sg.off[u]:sg.off[u+1]] {
			if w.dist[v] < 0 {
				w.dist[v] = w.dist[u] + 1
				order = append(order, v)
			}
			if w.dist[v] == w.dist[u]+1 {
				w.sigma[v] += w.sigma[u]
				w.preds[sg.predOff[v]+w.npred[v]] = u
				w.npred[v]++
			}
		}
	}
	// Dependency accumulation in reverse BFS order.
	for i := len(order) - 1; i > 0; i-- {
		x := order[i]
		coeff := (1 + w.delta[x]) / w.sigma[x]
		for _, v := range w.preds[sg.predOff[x] : sg.predOff[x]+w.npred[x]] {
			w.delta[v] += w.sigma[v] * coeff
		}
		w.partial[x] += w.delta[x]
	}
	w.order = order
}

// MostCentral returns the node of sub with the highest betweenness
// centrality within the induced subgraph, breaking ties toward switches
// first and then toward lower IDs. If sub is empty it returns NoNode.
func MostCentral(g *graph.Network, sub []graph.NodeID) graph.NodeID {
	if len(sub) == 0 {
		return graph.NoNode
	}
	cb := BetweennessN(g, sub, 1)
	best := sub[0]
	for _, n := range sub[1:] {
		if better(g, cb[n], cb[best], n, best) {
			best = n
		}
	}
	return best
}

// better reports whether a, of centrality ca, should be preferred over b,
// of centrality cb, as root.
func better(g *graph.Network, ca, cb float64, a, b graph.NodeID) bool {
	if ca != cb {
		return ca > cb
	}
	as, bs := g.IsSwitch(a), g.IsSwitch(b)
	if as != bs {
		return as
	}
	return a < b
}

// RootForDestinationsN computes the escape-path root for a destination
// set (§4.3): the most central node of the convex subgraph of the
// destinations, the composition Nue uses per virtual layer. The
// betweenness pass runs on the given number of workers; the root choice
// is identical for every worker count. With one worker it allocates
// nothing once its scratch is warm.
func RootForDestinationsN(g *graph.Network, dests []graph.NodeID, workers int) graph.NodeID {
	sc := scratches.Get()
	defer scratches.Put(sc)
	hull := sc.hull(g, dests)
	if len(hull) == 0 {
		return graph.NoNode
	}
	cb := sc.betweenness(g.CSRView(), workers)
	best := 0
	for i := 1; i < len(hull); i++ {
		if better(g, cb[i], cb[best], hull[i], hull[best]) {
			best = i
		}
	}
	return hull[best]
}
