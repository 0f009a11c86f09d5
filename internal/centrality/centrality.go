// Package centrality implements Brandes' betweenness centrality algorithm
// and the convex subgraph of Definition 8, used by Nue to pick the escape
// path root node (§4.3 of the paper).
package centrality

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ConvexSubgraph returns the node set N^H of the convex subgraph for the
// destination set dests (Definition 8): all destinations plus every node
// that is an intermediate node of at least one shortest path between two
// destinations. Runs in O(|dests| * (|N| + |C|)).
func ConvexSubgraph(g *graph.Network, dests []graph.NodeID) []graph.NodeID {
	n := g.NumNodes()
	inHull := make([]bool, n)
	isDest := make([]bool, n)
	for _, d := range dests {
		isDest[d] = true
		inHull[d] = true
	}
	// One breadth-first scratch for all destinations: dist is -1 and
	// marked false outside a sweep, and a sweep resets what it reached.
	marked := make([]bool, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	order := make([]graph.NodeID, 0, n)
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
	var hull []graph.NodeID
	for v := 0; v < n; v++ {
		if inHull[v] {
			hull = append(hull, graph.NodeID(v))
		}
	}
	return hull
}

// Betweenness computes Brandes' betweenness centrality for every node of
// the subgraph of g induced by the node set sub (nil means all nodes).
// The graph is treated as unweighted and parallel channels are counted
// once. The result maps only nodes of the subgraph; other entries are
// zero. Runs in O(|sub| * (|N| + |C|)).
func Betweenness(g *graph.Network, sub []graph.NodeID) []float64 {
	return BetweennessN(g, sub, 1)
}

// betweennessShard is the number of source nodes per reduction shard.
// Shard boundaries — and therefore the floating-point summation order of
// per-source dependencies into the result — depend only on the source set,
// never on the worker count, so BetweennessN is bit-identical for every
// value of workers.
const betweennessShard = 64

// brandesScratch is the per-worker single-source state of Brandes'
// algorithm.
type brandesScratch struct {
	sigma        []float64
	dist         []int32
	delta        []float64
	order        []graph.NodeID
	preds        [][]graph.NodeID
	seenNeighbor []int32
	epoch        int32
	partial      []float64 // one shard's centrality contribution
}

func newBrandesScratch(n int) *brandesScratch {
	return &brandesScratch{
		sigma:        make([]float64, n),
		dist:         make([]int32, n),
		delta:        make([]float64, n),
		order:        make([]graph.NodeID, 0, n),
		preds:        make([][]graph.NodeID, n),
		seenNeighbor: make([]int32, n),
		partial:      make([]float64, n),
	}
}

// oneSource runs the single-source phase of Brandes' algorithm from src
// and accumulates the dependencies into sc.partial. The adjacency walk
// runs on the flat CSR view (PR 8); iteration order matches Network.Out,
// so the shard sums — and the final centralities — are unchanged.
func (sc *brandesScratch) oneSource(csr *graph.CSR, in []bool, src graph.NodeID) {
	n := csr.NumNodes()
	// Single-source shortest path counting (BFS).
	sc.order = sc.order[:0]
	for i := 0; i < n; i++ {
		sc.sigma[i] = 0
		sc.dist[i] = -1
		sc.delta[i] = 0
		sc.preds[i] = sc.preds[i][:0]
	}
	sc.sigma[src] = 1
	sc.dist[src] = 0
	sc.order = append(sc.order, src)
	for head := 0; head < len(sc.order); head++ {
		u := sc.order[head]
		sc.epoch++
		for _, c := range csr.Out(u) {
			v := csr.To[c]
			if !in[v] || sc.seenNeighbor[v] == sc.epoch {
				continue // skip parallel channels to the same neighbor
			}
			sc.seenNeighbor[v] = sc.epoch
			if sc.dist[v] < 0 {
				sc.dist[v] = sc.dist[u] + 1
				sc.order = append(sc.order, v)
			}
			if sc.dist[v] == sc.dist[u]+1 {
				sc.sigma[v] += sc.sigma[u]
				sc.preds[v] = append(sc.preds[v], u)
			}
		}
	}
	// Dependency accumulation in reverse BFS order.
	for i := len(sc.order) - 1; i > 0; i-- {
		w := sc.order[i]
		coeff := (1 + sc.delta[w]) / sc.sigma[w]
		for _, v := range sc.preds[w] {
			sc.delta[v] += sc.sigma[v] * coeff
		}
		sc.partial[w] += sc.delta[w]
	}
}

// BetweennessN is Betweenness computed by the given number of workers
// (0 or negative means GOMAXPROCS). The source nodes are sharded into
// fixed-size blocks; each worker accumulates a block's dependencies into a
// private buffer and commits the buffers into the result in block order,
// so the output is bit-identical regardless of workers.
func BetweennessN(g *graph.Network, sub []graph.NodeID, workers int) []float64 {
	n := g.NumNodes()
	in := make([]bool, n)
	srcs := make([]graph.NodeID, 0, n)
	if sub == nil {
		for i := range in {
			in[i] = true
		}
	} else {
		for _, s := range sub {
			in[s] = true
		}
	}
	for s := 0; s < n; s++ {
		if in[s] {
			srcs = append(srcs, graph.NodeID(s))
		}
	}
	cb := make([]float64, n)
	csr := g.CSRView()
	numShards := (len(srcs) + betweennessShard - 1) / betweennessShard
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numShards {
		workers = numShards
	}

	runShard := func(sc *brandesScratch, shard int) {
		for i := range sc.partial {
			sc.partial[i] = 0
		}
		lo := shard * betweennessShard
		hi := lo + betweennessShard
		if hi > len(srcs) {
			hi = len(srcs)
		}
		for _, src := range srcs[lo:hi] {
			sc.oneSource(csr, in, src)
		}
	}
	commit := func(sc *brandesScratch) {
		for i, v := range sc.partial {
			cb[i] += v
		}
	}

	if workers <= 1 {
		sc := newBrandesScratch(n)
		for shard := 0; shard < numShards; shard++ {
			runShard(sc, shard)
			commit(sc)
		}
		return cb
	}

	// Workers claim shards from an atomic counter and commit their partial
	// sums strictly in shard order (ordered-commit pipeline): the reduction
	// order is a function of the shard boundaries alone.
	var (
		next       int64
		mu         sync.Mutex
		nextCommit int
		wg         sync.WaitGroup
	)
	cond := sync.NewCond(&mu)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newBrandesScratch(n)
			for {
				shard := int(atomic.AddInt64(&next, 1)) - 1
				if shard >= numShards {
					return
				}
				runShard(sc, shard)
				mu.Lock()
				for nextCommit != shard {
					cond.Wait()
				}
				commit(sc)
				nextCommit++
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return cb
}

// MostCentral returns the node of sub with the highest betweenness
// centrality within the induced subgraph, breaking ties toward switches
// first and then toward lower IDs. If sub is empty it returns NoNode.
func MostCentral(g *graph.Network, sub []graph.NodeID) graph.NodeID {
	return MostCentralN(g, sub, 1)
}

// MostCentralN is MostCentral with the betweenness computed by the given
// number of workers; the choice is identical for every worker count.
func MostCentralN(g *graph.Network, sub []graph.NodeID, workers int) graph.NodeID {
	if len(sub) == 0 {
		return graph.NoNode
	}
	cb := BetweennessN(g, sub, workers)
	best := sub[0]
	for _, n := range sub[1:] {
		if better(g, cb, n, best) {
			best = n
		}
	}
	return best
}

// better reports whether a should be preferred over b as root.
func better(g *graph.Network, cb []float64, a, b graph.NodeID) bool {
	if cb[a] != cb[b] {
		return cb[a] > cb[b]
	}
	as, bs := g.IsSwitch(a), g.IsSwitch(b)
	if as != bs {
		return as
	}
	return a < b
}

// RootForDestinations computes the escape-path root for a destination set
// (§4.3): the most central node of the convex subgraph of the
// destinations. This is the composition Nue uses per virtual layer.
func RootForDestinations(g *graph.Network, dests []graph.NodeID) graph.NodeID {
	return RootForDestinationsN(g, dests, 1)
}

// RootForDestinationsN is RootForDestinations with a parallel betweenness
// pass; the root choice is identical for every worker count.
func RootForDestinationsN(g *graph.Network, dests []graph.NodeID, workers int) graph.NodeID {
	hull := ConvexSubgraph(g, dests)
	return MostCentralN(g, hull, workers)
}
