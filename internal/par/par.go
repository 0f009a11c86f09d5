// Package par spreads independent tasks over goroutines. The engine's
// virtual layers, the fabric manager's layer jobs and certifiers, root
// choice's betweenness shards and the distribution source's agent pushes
// all run through For (DESIGN §8).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker budget: n if positive, else GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For calls fn(i) once for every i in [0, n) and returns when all calls
// have. At most min(workers, n) calls run at once: each goroutine claims
// the next unclaimed index, so indices are claimed in ascending order and
// a call may wait for the call of a smaller index to finish. With workers
// or n at most 1 the calls run in index order on the caller's goroutine.
func For(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
