// Package freelist recycles scratch between calls: List keeps the
// states a hot path draws and hands back, and Grow resizes their arrays
// to a call's sizes. The engine's layer states, the CDG arenas, the
// escape trees (bfs.SpanningTree), the partition workspace, the
// root-choice scratch, the fluid run states and distrib's CRC buffers
// all live in one List each (DESIGN §8).
package freelist

import "sync"

// List is a free list of *T: a mutex and a slice. It is not a sync.Pool
// on purpose. A pool is emptied by garbage collections, so whether a
// call reused a state or paid for a new one would depend on when the
// collector last ran, and what a call allocates would spread from run
// to run by whole states (the bytes of one core.Route on the 16³ torus
// read 18.7, 24.2 or 30.1 MB from call to call when the CDG arenas sat
// in a pool). A List holds at most as many states as were ever in use
// at once, and keeps them. The zero value is an empty list.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a kept state, or a new zero one when the list is empty.
// A kept state holds whatever its last user left in it.
func (l *List[T]) Get() *T {
	var x *T
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	if x == nil {
		x = new(T)
	}
	return x
}

// Put hands x back for the next Get. The caller must not use x
// afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Grow returns s resized to n elements, reusing its backing array when
// the capacity allows, so arrays grow to the largest call seen and never
// shrink. Kept contents are unspecified (callers overwrite or clear);
// a fresh array is zero.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
