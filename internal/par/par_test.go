package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForBound pins what a worker budget means: For never has more than
// min(workers, n) calls running at once and calls each index exactly
// once. The fabric manager's epoch rests on it: at Workers: 1 it runs
// one layer repair at a time.
func TestForBound(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 7} {
			var running, high atomic.Int32
			runs := make([]atomic.Int32, n)
			For(workers, n, func(i int) {
				now := running.Add(1)
				for {
					h := high.Load()
					if now <= h || high.CompareAndSwap(h, now) {
						break
					}
				}
				time.Sleep(time.Millisecond) // give the others time to overlap
				runs[i].Add(1)
				running.Add(-1)
			})
			if limit := int32(min(workers, n)); high.Load() > limit {
				t.Errorf("workers=%d n=%d: %d calls ran at once, want at most %d", workers, n, high.Load(), limit)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d called %d times, want once", workers, n, i, got)
				}
			}
		}
	}
}

// TestForOneWorkerInOrder pins the sequential path: at workers <= 1 the
// calls run in index order on the caller's goroutine, which is what lets
// the fabric manager promise that with one worker Verify runs before
// PostCheck. Each call compares its goroutine's ID with the caller's.
func TestForOneWorkerInOrder(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		var order []int
		caller := goroutineID()
		For(workers, 5, func(i int) {
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: index %d ran on goroutine %d, want the caller's %d", workers, i, id, caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: call order %v, want 0..4", workers, order)
			}
		}
		if len(order) != 5 {
			t.Fatalf("workers=%d: %d calls, want 5", workers, len(order))
		}
	}
}

// TestForAllocs pins what a parallel For costs: the caller runs one
// share of the tasks itself, so at workers = 2 one goroutine is started,
// and For allocates its shared claim state and that goroutine's call.
// When every share ran on a goroutine of its own it allocated 4 times.
func TestForAllocs(t *testing.T) {
	var sink [8]int
	fn := func(i int) { sink[i]++ }
	if n := testing.AllocsPerRun(100, func() { For(2, len(sink), fn) }); n > 2 {
		t.Errorf("For(2, %d) allocates %.0f times, want at most 2", len(sink), n)
	}
}

// TestForNoTasks: n = 0 (or less) calls nothing, at any worker count.
func TestForNoTasks(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		for _, n := range []int{0, -1} {
			For(workers, n, func(i int) { t.Errorf("workers=%d n=%d: fn(%d) called", workers, n, i) })
		}
	}
}

// TestWorkers: a positive budget is kept, anything else is GOMAXPROCS.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for n, want := range map[int]int{3: 3, 1: 1, 0: procs, -2: procs} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}

// goroutineID reads the running goroutine's ID from its stack header
// ("goroutine 18 [running]:").
func goroutineID() int {
	var buf [32]byte
	s := buf[:runtime.Stack(buf[:], false)]
	id := 0
	for _, c := range s[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int(c-'0')
	}
	return id
}
