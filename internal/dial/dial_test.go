package dial

import (
	"math"
	"math/rand"
	"testing"
)

func mustPop(t *testing.T, q *Queue) int {
	t.Helper()
	it, ok := q.ExtractMin()
	if !ok {
		t.Fatalf("ExtractMin on queue with Len=%d returned empty", q.Len())
	}
	return it
}

func TestBasicOrder(t *testing.T) {
	q := New(16)
	q.Insert(3, 2.0)
	q.Insert(1, 5.0)
	q.Insert(7, 2.0)
	q.Insert(2, 0.0)
	want := []int{2, 3, 7, 1} // (0,2) (2,3) (2,7) (5,1)
	for _, w := range want {
		if got := mustPop(t, q); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
	if _, ok := q.ExtractMin(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestTieBreakIsItemOrder(t *testing.T) {
	q := New(8)
	for _, it := range []int{5, 0, 3, 7, 1} {
		q.Insert(it, 4.0)
	}
	for _, w := range []int{0, 1, 3, 5, 7} {
		if got := mustPop(t, q); got != w {
			t.Fatalf("pop = %d, want %d (item tie-break)", got, w)
		}
	}
}

func TestFractionalKeysWithinBucket(t *testing.T) {
	// Keys with the same floor must still pop in (key, item) order.
	q := New(8)
	q.Insert(0, 3.75)
	q.Insert(1, 3.25)
	q.Insert(2, 3.5)
	q.Insert(3, 3.25)
	for _, w := range []int{1, 3, 2, 0} {
		if got := mustPop(t, q); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}

func TestDecreaseKey(t *testing.T) {
	q := New(8)
	q.Insert(0, 9.0)
	q.Insert(1, 9.5)
	if got := mustPop(t, q); got != 0 {
		t.Fatalf("pop = %d, want 0", got)
	}
	// Monotone decrease of the survivor (new key above the watermark).
	q.DecreaseKey(1, 9.25)
	if q.Key(1) != 9.25 {
		t.Fatalf("Key(1) = %v, want 9.25", q.Key(1))
	}
	if got := mustPop(t, q); got != 1 {
		t.Fatalf("pop = %d, want 1", got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

func TestInsertOrDecrease(t *testing.T) {
	q := New(8)
	if !q.InsertOrDecrease(4, 6.0) {
		t.Fatal("first InsertOrDecrease should report change")
	}
	if q.InsertOrDecrease(4, 7.0) {
		t.Fatal("larger key should be a no-op")
	}
	if !q.InsertOrDecrease(4, 5.0) {
		t.Fatal("smaller key should decrease")
	}
	if q.Key(4) != 5.0 {
		t.Fatalf("Key(4) = %v, want 5", q.Key(4))
	}
}

func TestRewindOnEmpty(t *testing.T) {
	// Nue's backtracking re-seeds a settled channel at its old, smaller
	// distance — but only when the queue has drained. The cursor must
	// rewind to serve it.
	q := New(8)
	q.Insert(0, 7.0)
	mustPop(t, q)
	q.Insert(1, 2.0) // rewind below the old cursor
	q.Insert(2, 3.0)
	if got := mustPop(t, q); got != 1 {
		t.Fatalf("pop after rewind = %d, want 1", got)
	}
	if got := mustPop(t, q); got != 2 {
		t.Fatalf("pop = %d, want 2", got)
	}
}

func TestNonMonotoneInsertPanics(t *testing.T) {
	q := New(8)
	q.Insert(0, 5.0)
	q.Insert(1, 9.0)
	mustPop(t, q) // watermark now 5.0, queue non-empty
	defer func() {
		if recover() == nil {
			t.Fatal("insert below the watermark on a non-empty queue must panic")
		}
	}()
	q.Insert(2, 1.0)
}

func TestDuplicateInsertPanics(t *testing.T) {
	q := New(4)
	q.Insert(1, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert must panic")
		}
	}()
	q.Insert(1, 2.0)
}

func TestBadKeyPanics(t *testing.T) {
	q := New(4)
	for _, key := range []float64{-1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("key %v must panic", key)
				}
			}()
			q.Insert(0, key)
		}()
	}
}

func TestResetReuse(t *testing.T) {
	q := New(16)
	for round := 0; round < 3; round++ {
		q.Insert(3, 4.0)
		q.Insert(9, 1.0)
		q.Insert(5, 4.0)
		mustPop(t, q) // 9
		q.Reset()
		if q.Len() != 0 || q.Contains(3) || q.Contains(5) || q.Contains(9) {
			t.Fatalf("round %d: Reset left state behind", round)
		}
		// Items must be insertable again at any key after Reset.
		q.Insert(3, 0.5)
		if got := mustPop(t, q); got != 3 {
			t.Fatalf("round %d: pop = %d, want 3", round, got)
		}
	}
}

// model is the specification the queue is held to: a map from item to
// key whose minimum under (key, item) order is found by linear scan.
type model map[int]float64

func (m model) insertOrDecrease(item int, key float64) bool {
	if old, ok := m[item]; ok && key >= old {
		return false
	}
	m[item] = key
	return true
}

func (m model) extractMin() (item int, key float64, ok bool) {
	for it, k := range m {
		if !ok || k < key || (k == key && it < item) {
			item, key, ok = it, k, true
		}
	}
	delete(m, item)
	return item, key, ok
}

// TestPopOrderIsLexicographic is the seeded property test of the pop
// order every routing golden rests on: on random Dijkstra-monotone
// workloads — inserts and decreases never below the last extracted key
// while the queue is non-empty, free rewinds when empty, integer and
// fractional keys — the dial queue must pop the sequence the linear-scan
// model pops under the documented (key, item) order.
func TestPopOrderIsLexicographic(t *testing.T) {
	const capacity = 64
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := New(capacity)
		m := model{}

		// nextKey draws a key legal for the current queue state: any
		// key when empty, watermark-or-above when draining. Half the
		// keys are integers, half carry a fractional part, mirroring
		// Nue's 1 + k/totalSources weight growth.
		watermark := math.Inf(-1)
		nextKey := func() float64 {
			lo := 0.0
			if q.Len() > 0 && watermark > 0 {
				lo = watermark
			}
			k := lo + float64(rng.Intn(5))
			if rng.Intn(2) == 0 {
				k += rng.Float64()
			}
			return k
		}

		for op := 0; op < 2000; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // insert a fresh item
				it := rng.Intn(capacity)
				_, queued := m[it]
				if q.Contains(it) != queued {
					t.Fatalf("seed %d op %d: Contains(%d) = %v, model %v", seed, op, it, !queued, queued)
				}
				if queued {
					continue
				}
				k := nextKey()
				q.Insert(it, k)
				m[it] = k
			case r < 6: // insert-or-decrease a random item, no-ops included
				it := rng.Intn(capacity)
				k := nextKey()
				if q.InsertOrDecrease(it, k) != m.insertOrDecrease(it, k) {
					t.Fatalf("seed %d op %d: InsertOrDecrease disagreement", seed, op)
				}
			case r < 9: // extract
				qi, qok := q.ExtractMin()
				mi, mk, mok := m.extractMin()
				if qok != mok || qi != mi {
					t.Fatalf("seed %d op %d: ExtractMin = (%d,%v) dial vs (%d,%v) model",
						seed, op, qi, qok, mi, mok)
				}
				if qok {
					watermark = mk
				}
			default: // occasional full reset
				if rng.Intn(20) == 0 {
					q.Reset()
					m = model{}
					watermark = math.Inf(-1)
				}
			}
			if q.Len() != len(m) {
				t.Fatalf("seed %d op %d: Len %d vs %d", seed, op, q.Len(), len(m))
			}
		}
		// Drain both completely and compare the tails.
		for {
			qi, qok := q.ExtractMin()
			mi, _, mok := m.extractMin()
			if qok != mok || qi != mi {
				t.Fatalf("seed %d drain: (%d,%v) dial vs (%d,%v) model", seed, qi, qok, mi, mok)
			}
			if !qok {
				break
			}
		}
	}
}
