// Package dial implements a monotone bucket priority queue (Dial's
// algorithm) for Dijkstra workloads whose edge weights are at least 1 —
// the regime of Nue's balanced hop weights and of the baselines' unit or
// DFSSSP weights, which start at 1 and only grow. Buckets are indexed by
// floor(key); because every relaxation out of a vertex popped at key k
// inserts keys >= k+1, the bucket being drained never receives new
// entries, so sorting each bucket once as the cursor enters it yields
// EXACTLY the lexicographic (key, item) extraction order. That order is
// the tie-break every routing golden in this repository rests on; it is
// what a Fibonacci heap with the same tie-break pops (the paper's Alg. 1
// cites one), at O(1) bucket operations in place of the heap's O(log n)
// (DESIGN.md §3).
//
// Contract (checked where cheap, documented otherwise):
//   - keys are finite and >= 0;
//   - while the queue is non-empty and extraction has begun, every
//     Insert/DecreaseKey key is >= the last extracted key (Dijkstra
//     monotonicity; weights >= 1 give it with slack);
//   - when the queue is empty, any key may be inserted (the cursor
//     rewinds) — this is how Nue's backtracking re-seeds a settled
//     channel at its old, smaller distance.
//
// Entries are appended with lazy deletion: a DecreaseKey appends a fresh
// entry to the new bucket and the superseded entry is skipped when its
// recorded key no longer matches the item's current key.
package dial

import (
	"math"
	"slices"
)

type entry struct {
	key  float64
	item int32
}

// Queue is a monotone bucket priority queue over integer items with
// float64 keys. The zero value is not usable; call New.
type Queue struct {
	keys []float64 // item -> current key (valid only when inq)
	inq  []bool    // item -> currently queued

	buckets [][]entry // bucket b holds entries with floor(key) == b
	touched []int32   // buckets that received entries since Reset
	cur     int       // bucket the cursor is draining
	curIdx  int       // next entry within buckets[cur]
	dirty   bool      // buckets[cur][curIdx:] needs sorting
	n       int       // live entries

	lastPopped float64 // monotonicity watermark, -Inf when unstarted
}

// New returns an empty queue able to hold items in [0, capacity).
func New(capacity int) *Queue {
	return &Queue{
		keys:       make([]float64, capacity),
		inq:        make([]bool, capacity),
		lastPopped: math.Inf(-1),
	}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return q.n }

// Cap returns the item capacity the queue was created with.
func (q *Queue) Cap() int { return len(q.inq) }

// Contains reports whether item is currently queued.
func (q *Queue) Contains(item int) bool { return q.inq[item] }

// Key returns the current key of item. It panics if absent.
func (q *Queue) Key(item int) float64 {
	if !q.inq[item] {
		panic("dial: Key of absent item")
	}
	return q.keys[item]
}

// Insert adds item with the given key. It panics if the item is already
// present, the key is not a finite non-negative number, or the insert
// violates monotonicity while the queue is draining.
func (q *Queue) Insert(item int, key float64) {
	if q.inq[item] {
		panic("dial: duplicate insert")
	}
	q.add(item, key)
}

// add enqueues (item, key), enforcing the monotonicity contract.
func (q *Queue) add(item int, key float64) {
	if !(key >= 0) || math.IsInf(key, 1) {
		panic("dial: key must be finite and non-negative")
	}
	if q.n == 0 {
		// Empty queue: the cursor may rewind freely (backtracking
		// re-seeds below previously drained keys).
		q.lastPopped = math.Inf(-1)
	} else if key < q.lastPopped {
		panic("dial: non-monotone insert below the extraction watermark")
	}
	b := int(key)
	for len(q.buckets) <= b {
		q.buckets = append(q.buckets, nil)
	}
	if len(q.buckets[b]) == 0 {
		q.touched = append(q.touched, int32(b))
	}
	q.buckets[b] = append(q.buckets[b], entry{key: key, item: int32(item)})
	q.keys[item] = key
	q.inq[item] = true
	q.n++
	if q.n == 1 || b < q.cur {
		q.cur = b
		q.curIdx = 0
		q.dirty = true
	} else if b == q.cur {
		q.dirty = true
	}
}

// DecreaseKey lowers the key of item. It panics if the item is absent or
// the new key is greater than the current one.
func (q *Queue) DecreaseKey(item int, key float64) {
	if !q.inq[item] {
		panic("dial: DecreaseKey of absent item")
	}
	if key > q.keys[item] {
		panic("dial: DecreaseKey increases key")
	}
	if key == q.keys[item] {
		return
	}
	// Lazy deletion: the superseded entry stays behind and is skipped
	// when popped (its recorded key no longer matches).
	q.inq[item] = false
	q.n--
	q.add(item, key)
}

// InsertOrDecrease inserts the item if absent, otherwise decreases its
// key if the new key is smaller. Returns true if the queue changed.
func (q *Queue) InsertOrDecrease(item int, key float64) bool {
	if !q.inq[item] {
		q.add(item, key)
		return true
	}
	if key < q.keys[item] {
		q.DecreaseKey(item, key)
		return true
	}
	return false
}

// ExtractMin removes and returns the item that is minimal under the
// (key, item) lexicographic order. The second result is false if the
// queue is empty.
func (q *Queue) ExtractMin() (int, bool) {
	if q.n == 0 {
		return 0, false
	}
	for {
		if q.curIdx >= len(q.buckets[q.cur]) {
			// Bucket exhausted: every entry was popped or stale; free the
			// slots for reuse and advance. A live entry exists (n > 0),
			// so the scan terminates.
			q.buckets[q.cur] = q.buckets[q.cur][:0]
			q.cur++
			q.curIdx = 0
			q.dirty = true
			continue
		}
		if q.dirty {
			slices.SortFunc(q.buckets[q.cur][q.curIdx:], func(a, b entry) int {
				if a.key != b.key {
					if a.key < b.key {
						return -1
					}
					return 1
				}
				return int(a.item) - int(b.item)
			})
			q.dirty = false
		}
		e := q.buckets[q.cur][q.curIdx]
		q.curIdx++
		if !q.inq[e.item] || q.keys[e.item] != e.key {
			continue // superseded by a DecreaseKey or re-insert
		}
		q.inq[e.item] = false
		q.n--
		q.lastPopped = e.key
		return int(e.item), true
	}
}

// Reset empties the queue in O(live + touched buckets) so Dijkstra
// callers can reuse it between destinations without reallocating.
func (q *Queue) Reset() {
	for _, b := range q.touched {
		for _, e := range q.buckets[b] {
			if q.inq[e.item] && q.keys[e.item] == e.key {
				q.inq[e.item] = false
			}
		}
		q.buckets[b] = q.buckets[b][:0]
	}
	q.touched = q.touched[:0]
	q.cur = 0
	q.curIdx = 0
	q.dirty = false
	q.n = 0
	q.lastPopped = math.Inf(-1)
}
