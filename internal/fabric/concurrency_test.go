package fabric

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// TestConcurrentReadersDuringChurn exercises the acceptance criterion
// that queries stay race-clean (run with -race) and internally consistent
// while reconfigurations apply from another goroutine: readers walk full
// paths on snapshots taken mid-churn and must never observe a torn
// (network, table) pair.
func TestConcurrentReadersDuringChurn(t *testing.T) {
	tp := topology.Torus3D(4, 4, 2, 1, 1)
	m, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	terms := m.View().Net.Terminals()

	var done atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				src := terms[rng.Intn(len(terms))]
				dst := terms[rng.Intn(len(terms))]
				if src == dst {
					continue
				}
				// A snapshot must stay self-consistent no matter how many
				// epochs pass while we hold it.
				snap := m.View()
				path, err := snap.Result.Table.Path(src, dst)
				if err != nil {
					continue // legitimately disconnected at this epoch
				}
				at := src
				for _, c := range path {
					ch := snap.Net.Channel(c)
					if ch.From != at {
						errCh <- fmt.Errorf("torn path in snapshot epoch %d", snap.Epoch)
						return
					}
					at = ch.To
				}
				if at != dst {
					errCh <- fmt.Errorf("path does not end at destination (epoch %d)", snap.Epoch)
					return
				}
				// Epoch goes through the same snapshot mechanism; just
				// exercise it for the race detector.
				m.Epoch()
			}
		}(int64(100 + r))
	}

	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 30; i++ {
		ev, ok := m.RandomEvent(rng, 0.3)
		if !ok {
			t.Fatal("no event possible")
		}
		if _, err := m.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if m.Epoch() == 0 {
		t.Fatal("no epoch advanced during the churn")
	}
}

// TestSimultaneousChurnAppliers drives reconfigurations from several
// goroutines at once — the per-layer repairs of concurrent events must
// serialize on the manager lock while their layer workers run in parallel
// — with readers racing the publications (and seeing epochs only grow).
// Run under -race; it pins down that snapshot publication (atomic
// pointer swap + deep-cloned tables) has no data race even when events
// arrive faster than repairs complete. The final state must still verify deadlock-free.
func TestSimultaneousChurnAppliers(t *testing.T) {
	tp := topology.Torus3D(4, 4, 2, 1, 1)
	m, err := NewManager(tp, Options{MaxVCs: 4, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	var wgAppliers, wgReaders sync.WaitGroup
	errCh := make(chan error, 16)
	const appliers, eventsPer = 4, 8
	for a := 0; a < appliers; a++ {
		wgAppliers.Add(1)
		go func(seed int64) {
			defer wgAppliers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < eventsPer; i++ {
				// RandomEvent and Apply take the manager lock separately, so
				// an event may be stale (already applied by a sibling) by the
				// time it lands; Apply must degrade it to a no-op, never to
				// an inconsistent snapshot.
				ev, ok := m.RandomEvent(rng, 0.5)
				if !ok {
					continue
				}
				if _, err := m.Apply(ev); err != nil {
					errCh <- fmt.Errorf("apply %s: %w", ev, err)
					return
				}
			}
		}(int64(200 + a))
	}

	var done atomic.Bool
	for r := 0; r < 2; r++ {
		wgReaders.Add(1)
		go func(seed int64) {
			defer wgReaders.Done()
			rng := rand.New(rand.NewSource(seed))
			terms := m.View().Net.Terminals()
			for !done.Load() {
				snap := m.View()
				src, dst := terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))]
				if src != dst {
					snap.Result.Table.Path(src, dst) // may legitimately fail mid-churn
				}
				if later := m.View(); later.Epoch < snap.Epoch {
					t.Errorf("epoch went back from %d to %d", snap.Epoch, later.Epoch)
				}
			}
		}(int64(300 + r))
	}

	wgAppliers.Wait()
	done.Store(true)
	wgReaders.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	snap := m.View()
	if _, err := verify.Check(snap.Net, snap.Result, nil); err != nil {
		t.Fatalf("final snapshot invalid after simultaneous churn: %v", err)
	}
}

// TestLayerJobsPooledDigestEqual replays one 40-event trace through two
// torus managers that differ only in Workers, 1 and 4: the first runs an
// event's layer jobs one after another, the second on a pool of four
// (goroutines, whatever GOMAXPROCS is, which is what -race needs). Epochs
// and table digests must be equal after every event, and at least half
// the events must plan two or more layer jobs, so the pool had jobs to
// overlap.
func TestLayerJobsPooledDigestEqual(t *testing.T) {
	tp := topology.Torus3D(4, 4, 4, 1, 1)
	var mgrs [2]*Manager
	for i, workers := range []int{1, 4} {
		m, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		mgrs[i] = m
	}
	shadow := NewState(tp.Net)
	rng := rand.New(rand.NewSource(21))
	pooled := 0 // events with two or more layer jobs
	for i := 0; i < 40; i++ {
		ev, ok := shadow.RandomEvent(rng, 0.3)
		if !ok {
			t.Fatal("no churn event possible")
		}
		old := mgrs[0].View()
		changed := shadow.Mutate(ev)
		newNet := shadow.working.Clone()
		if len(new(runner).planJobs(old, affectedDests(nil, newNet, old.Result.Table.Clone(newNet), changed))) >= 2 {
			pooled++
		}
		for _, m := range mgrs {
			if _, err := m.Apply(ev); err != nil {
				t.Fatalf("event %d (%s), workers=%d: %v", i, ev, m.opts.Workers, err)
			}
		}
		a, b := mgrs[0].View(), mgrs[1].View()
		if a.Epoch != b.Epoch || a.Result.Table.Digest() != b.Result.Table.Digest() {
			t.Fatalf("event %d (%s): workers 1 published %d:%#x, workers 4 %d:%#x", i, ev,
				a.Epoch, a.Result.Table.Digest(), b.Epoch, b.Result.Table.Digest())
		}
	}
	if pooled < 20 {
		t.Fatalf("only %d of 40 events planned two or more layer jobs", pooled)
	}
}
