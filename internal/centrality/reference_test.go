package centrality_test

// BetweennessN as it was before Brandes ran on a hull-local adjacency:
// every search walks the whole network's channels, skips nodes outside
// the subgraph and parallel channels as it meets them, and keeps a
// slice of predecessors per node. Kept verbatim but for its name as the
// reference the hull-local pass must reproduce bit for bit.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

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

// brandesScratches recycles brandesScratch between BetweennessN calls,
// predecessor lists included. Like core's layer states it is a
// mutex-guarded free list rather than a sync.Pool, so what a call
// allocates does not depend on when the garbage collector last ran; it
// holds at most as many scratches as were ever in use at once.
var brandesScratches struct {
	sync.Mutex
	free []*brandesScratch
}

// newBrandesScratch draws a scratch for n nodes from the free list, or
// makes one. sigma, dist, delta, preds and partial are reset before each
// use; seenNeighbor is cleared here, with its epoch.
func newBrandesScratch(n int) *brandesScratch {
	var sc *brandesScratch
	brandesScratches.Lock()
	if k := len(brandesScratches.free); k > 0 {
		sc = brandesScratches.free[k-1]
		brandesScratches.free[k-1] = nil
		brandesScratches.free = brandesScratches.free[:k-1]
	}
	brandesScratches.Unlock()
	if sc == nil {
		sc = new(brandesScratch)
	}
	sc.sigma = grow(sc.sigma, n)
	sc.dist = grow(sc.dist, n)
	sc.delta = grow(sc.delta, n)
	sc.order = grow(sc.order, n)[:0]
	sc.preds = grow(sc.preds, n)
	sc.seenNeighbor = grow(sc.seenNeighbor, n)
	clear(sc.seenNeighbor)
	sc.epoch = 0
	sc.partial = grow(sc.partial, n)
	return sc
}

// release hands the scratch back to the free list.
func (sc *brandesScratch) release() {
	brandesScratches.Lock()
	brandesScratches.free = append(brandesScratches.free, sc)
	brandesScratches.Unlock()
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// oneSource runs the single-source phase of Brandes' algorithm from src
// and accumulates the dependencies into sc.partial. The adjacency walk
// runs on the flat CSR view; iteration order matches Network.Out, so the
// shard sums — and the final centralities — are unchanged.
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

// referenceBetweennessN computes BetweennessN's result on the given
// number of workers (0 or negative means GOMAXPROCS). The source nodes
// are sharded into fixed-size blocks; each worker accumulates a block's
// dependencies into a private buffer and commits the buffers into the
// result in block order, so the output is bit-identical regardless of
// workers.
func referenceBetweennessN(g *graph.Network, sub []graph.NodeID, workers int) []float64 {
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
		defer sc.release()
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
			defer sc.release()
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
