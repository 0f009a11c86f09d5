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
// have. At most min(workers, n) calls run at once: the caller and up to
// workers-1 goroutines each claim the next unclaimed index, so indices
// are claimed in ascending order and a call may wait for the call of a
// smaller index to finish. With workers or n at most 1 the calls run in
// index order on the caller's goroutine.
func For(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	s := &share{n: n, fn: fn}
	s.wg.Add(workers - 1)
	for range workers - 1 {
		go s.work()
	}
	s.run()
	s.wg.Wait()
}

// share is one For call's tasks, claimed an index at a time by the
// caller and its goroutines.
type share struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	fn   func(i int)
}

// run calls fn for every index it claims until none is left.
func (s *share) run() {
	for i := int(s.next.Add(1)) - 1; i < s.n; i = int(s.next.Add(1)) - 1 {
		s.fn(i)
	}
}

// work is run on a goroutine of its own.
func (s *share) work() {
	defer s.wg.Done()
	s.run()
}
