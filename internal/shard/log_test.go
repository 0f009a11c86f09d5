package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestClusterElectionAndAppend: the green path — elect, append a few
// epochs, read them back committed under one term.
func TestClusterElectionAndAppend(t *testing.T) {
	c := NewCluster(3)
	term, err := c.TryElect(0)
	if err != nil {
		t.Fatal(err)
	}
	if term != 1 {
		t.Fatalf("first term = %d, want 1", term)
	}
	for e := uint64(0); e < 4; e++ {
		if err := c.Append(0, term, Entry{Epoch: e, Digest: 100 + e}); err != nil {
			t.Fatalf("append epoch %d: %v", e, err)
		}
		got, ok := c.CommittedAt(e)
		if !ok || got.Digest != 100+e || got.Term != term {
			t.Fatalf("epoch %d: committed=%v entry=%+v", e, ok, got)
		}
		if terms := c.CommittedTermsAt(e); len(terms) != 1 || terms[0] != term {
			t.Fatalf("epoch %d committed terms = %v", e, terms)
		}
	}
	if last, ok := c.Committed(); !ok || last.Epoch != 3 {
		t.Fatalf("Committed = %+v (ok=%v), want epoch 3", last, ok)
	}
	// Out-of-order epochs are rejected outright.
	if err := c.Append(0, term, Entry{Epoch: 9}); err == nil {
		t.Fatal("append with an epoch gap succeeded")
	}
}

// TestClusterQuorumRules: dead replicas break elections and appends
// exactly at the majority threshold; revival restores it.
func TestClusterQuorumRules(t *testing.T) {
	c := NewCluster(3)
	term, err := c.TryElect(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Kill(1)
	if err := c.Append(0, term, Entry{Epoch: 0, Digest: 1}); err != nil {
		t.Fatalf("append with 2/3 alive: %v", err)
	}
	c.Kill(2)
	if err := c.Append(0, term, Entry{Epoch: 1, Digest: 2}); !errors.Is(err, ErrDeposed) {
		t.Fatalf("append with 1/3 alive: err=%v, want ErrDeposed", err)
	}
	if _, err := c.TryElect(0); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("election with 1/3 alive: err=%v, want ErrNoQuorum", err)
	}
	if _, err := c.TryElect(1); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("dead candidate: err=%v, want ErrNoQuorum", err)
	}
	c.Revive(1)
	// Replica 1 was dead while epoch 0 committed, so the election
	// restriction must keep it from leading even after revival.
	if _, err := c.TryElect(1); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("stale revived candidate: err=%v, want ErrNoQuorum", err)
	}
	// The up-to-date replica leads, with the revived one as its voter.
	// Failed candidacies bumped terms, so (like Raft) it may need another
	// round before its term overtakes every voter's.
	term2, err := c.TryElect(0)
	for retries := 0; err != nil && retries < 3; retries++ {
		term2, err = c.TryElect(0)
	}
	if err != nil {
		t.Fatalf("election after revival: %v", err)
	}
	if term2 <= term {
		t.Fatalf("new term %d not beyond old term %d", term2, term)
	}
	// The dead leader's lone epoch-1 entry never committed.
	if _, ok := c.CommittedAt(1); ok {
		t.Fatal("uncommitted epoch 1 reported committed")
	}
}

// TestClusterElectionRestriction: a replica whose log misses committed
// entries cannot win an election (Raft's up-to-date check), so every
// electable leader holds every committed epoch.
func TestClusterElectionRestriction(t *testing.T) {
	c := NewCluster(3)
	term, err := c.TryElect(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, term, Entry{Epoch: 0, Digest: 7}); err != nil {
		t.Fatal(err)
	}
	// Isolate the leader; the majority moves on without it.
	c.Partition([]int{0})
	term1, err := c.TryElect(1)
	if err != nil {
		t.Fatalf("majority election: %v", err)
	}
	if err := c.Append(1, term1, Entry{Epoch: 1, Digest: 8}); err != nil {
		t.Fatalf("majority append: %v", err)
	}
	c.Heal()
	// The healed ex-leader misses epoch 1: its candidacy must fail.
	if _, err := c.TryElect(0); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("stale candidate won: err=%v, want ErrNoQuorum", err)
	}
	// Its stale-term appends must also fail.
	if err := c.Append(0, term, Entry{Epoch: 1, Digest: 9}); !errors.Is(err, ErrDeposed) {
		t.Fatalf("stale-term append: err=%v, want ErrDeposed", err)
	}
	// The up-to-date replica re-elects and continues.
	term2, err := c.TryElect(1)
	if err != nil {
		t.Fatalf("re-election: %v", err)
	}
	if err := c.Append(1, term2, Entry{Epoch: 2, Digest: 10}); err != nil {
		t.Fatalf("append after re-election: %v", err)
	}
	for e := uint64(0); e <= 2; e++ {
		if terms := c.CommittedTermsAt(e); len(terms) != 1 {
			t.Fatalf("epoch %d committed terms = %v, want exactly one", e, terms)
		}
	}
}

// TestClusterConflictTruncation: an isolated leader's uncommitted entry
// must be truncated when the healed replica receives the majority's
// conflicting entry at the same index — and at no point may two terms
// both commit one epoch.
func TestClusterConflictTruncation(t *testing.T) {
	c := NewCluster(5)
	term, err := c.TryElect(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, term, Entry{Epoch: 0, Digest: 1}); err != nil {
		t.Fatal(err)
	}
	// Minority side {0,1}: leader 0 appends epoch 1 — no quorum, but the
	// entry lands in its own (and 1's) log.
	c.Partition([]int{0, 1})
	if err := c.Append(0, term, Entry{Epoch: 1, Digest: 66}); !errors.Is(err, ErrDeposed) {
		t.Fatalf("minority append: err=%v, want ErrDeposed", err)
	}
	// Majority side elects 2 and commits a DIFFERENT epoch 1.
	term2, err := c.TryElect(2)
	if err != nil {
		t.Fatalf("majority election: %v", err)
	}
	if err := c.Append(2, term2, Entry{Epoch: 1, Digest: 77}); err != nil {
		t.Fatalf("majority append: %v", err)
	}
	if terms := c.TermsAt(1); len(terms) != 2 {
		t.Fatalf("divergent logs should show 2 terms at epoch 1, got %v", terms)
	}
	if terms := c.CommittedTermsAt(1); len(terms) != 1 || terms[0] != term2 {
		t.Fatalf("committed terms at epoch 1 = %v, want [%d]", terms, term2)
	}
	// Heal; the next append overwrites the minority's conflicting suffix.
	c.Heal()
	if err := c.Append(2, term2, Entry{Epoch: 2, Digest: 88}); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if terms := c.TermsAt(1); len(terms) != 1 || terms[0] != term2 {
		t.Fatalf("epoch 1 terms after truncation = %v, want [%d]", terms, term2)
	}
	if e, ok := c.CommittedAt(1); !ok || e.Digest != 77 {
		t.Fatalf("epoch 1 after heal = %+v (ok=%v), want the majority's digest 77", e, ok)
	}
}

// TestDeposedAppendWritesNoLog: a leader that finds a newer term on a
// reachable replica is deposed before it writes any log. A follower
// checked before that replica must not keep the entry, or it adds up to
// a quorum and the refused epoch commits.
func TestDeposedAppendWritesNoLog(t *testing.T) {
	c := NewCluster(3)
	term, err := c.TryElect(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, term, Entry{Epoch: 0, Digest: 1}); err != nil {
		t.Fatal(err)
	}
	// Replica 2 loses an election on its own, which still bumps its term.
	c.Partition([]int{2})
	if _, err := c.TryElect(2); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("isolated election: err=%v, want ErrNoQuorum", err)
	}
	c.Heal()
	if err := c.Append(0, term, Entry{Epoch: 1, Digest: 2}); !errors.Is(err, ErrDeposed) {
		t.Fatalf("append under a stale term: err=%v, want ErrDeposed", err)
	}
	if e, ok := c.CommittedAt(1); ok {
		t.Fatalf("the deposed append committed epoch 1: %+v", e)
	}
	for id := 0; id < c.Size(); id++ {
		if n := c.LogLen(id); n != 1 {
			t.Fatalf("replica %d holds %d entries after the deposed append, want 1", id, n)
		}
	}
}

// BenchmarkTryElectLongLog times one election on a 3-replica cluster
// whose committed log is long: the winner's truncation must find the
// committed prefix without walking it.
func BenchmarkTryElectLongLog(b *testing.B) {
	for _, entries := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprint(entries), func(b *testing.B) {
			c := NewCluster(3)
			term, err := c.TryElect(0)
			if err != nil {
				b.Fatal(err)
			}
			for e := 0; e < entries; e++ {
				if err := c.Append(0, term, Entry{Epoch: uint64(e), Digest: uint64(e)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.TryElect(i % 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSplitBrainAtMostOneTerm is the seeded split-brain battery: five
// replicas, four proposers and a fault injector that partitions, kills,
// heals and revives. Every Cluster method runs under its mutex, so
// goroutines would add only interleavings no run can replay; instead one
// goroutine draws the next step from a seeded rng, for every seed of a
// fixed list. A proposer's election and each of its appends are separate
// steps, so other proposers and the injector act in between and a leader
// may propose under a term that is no longer current. The safety property
// under test, checked after every step: at every epoch index at most one
// term assembles a commit quorum, and it stays the one that did. Each
// seed must also commit something and leave a healed cluster that
// commits.
func TestSplitBrainAtMostOneTerm(t *testing.T) {
	const (
		replicas  = 5
		proposers = 4
		steps     = 120 // per proposer; the injector takes half as many
	)
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			c := NewCluster(replicas)
			rng := rand.New(rand.NewSource(seed))
			// A proposer elects a random candidate, then proposes up to
			// three epochs under the won term, one per step; digests encode
			// the proposer so divergent proposals never collide.
			type proposer struct {
				cand     int
				term     uint64 // 0 while not leading
				proposed int
			}
			props := make([]proposer, proposers)
			propose := func(pr, step int) {
				p := &props[pr]
				if p.term == 0 || p.proposed == 3 {
					p.cand, p.term, p.proposed = rng.Intn(replicas), 0, 0
					if term, err := c.TryElect(p.cand); err == nil {
						p.term = term
					}
					return
				}
				epoch := uint64(c.LogLen(p.cand))
				digest := uint64(pr)<<32 | uint64(step)<<8 | uint64(p.proposed)
				if err := c.Append(p.cand, p.term, Entry{Epoch: epoch, Digest: digest}); err != nil {
					p.term = 0
					return
				}
				p.proposed++
			}
			// An injector step: a seeded partition, crash, revival or heal.
			inject := func() {
				switch rng.Intn(4) {
				case 0:
					var side []int
					for id := 0; id < replicas; id++ {
						if rng.Intn(2) == 0 {
							side = append(side, id)
						}
					}
					c.Partition(side)
				case 1:
					c.Kill(rng.Intn(replicas))
				case 2:
					c.Revive(rng.Intn(replicas))
				case 3:
					c.Heal()
				}
			}
			// committedAs[e] is the term that first committed epoch e.
			committedAs := map[int]uint64{}
			check := func(when string) {
				t.Helper()
				maxLen := 0
				for id := 0; id < replicas; id++ {
					maxLen = max(maxLen, c.LogLen(id))
				}
				for e := 0; e < maxLen; e++ {
					terms := c.CommittedTermsAt(uint64(e))
					if len(terms) > 1 {
						t.Fatalf("%s: epoch %d committed under %d terms: %v", when, e, len(terms), terms)
					}
					if len(terms) == 1 {
						if was, ok := committedAs[e]; ok && was != terms[0] {
							t.Fatalf("%s: epoch %d committed under term %d, later under term %d", when, e, was, terms[0])
						}
						committedAs[e] = terms[0]
					}
				}
			}
			// The next step is drawn among the actors with steps left.
			left := make([]int, proposers+1) // proposers, then the injector
			for i := range left {
				left[i] = steps
			}
			left[proposers] = steps / 2
			for total := proposers*steps + steps/2; total > 0; total-- {
				a := rng.Intn(len(left))
				for left[a] == 0 {
					a = (a + 1) % len(left)
				}
				left[a]--
				if a == proposers {
					inject()
				} else {
					propose(a, steps-1-left[a])
				}
				check(fmt.Sprintf("step %d", proposers*steps+steps/2-total))
			}
			if len(committedAs) == 0 {
				t.Fatal("no epoch ever committed")
			}
			// After healing, the cluster must still be able to make progress.
			// Failed candidacies bump terms, so (like Raft) a candidate may
			// need another round before its term overtakes every voter's.
			c.Heal()
			for id := 0; id < replicas; id++ {
				c.Revive(id)
			}
			var term uint64
			err := ErrNoQuorum
			for i := 0; err != nil && i < 3*replicas; i++ {
				cand := i % replicas
				if term, err = c.TryElect(cand); err == nil {
					err = c.Append(cand, term, Entry{Epoch: uint64(c.LogLen(cand)), Digest: 424242})
				}
			}
			if err != nil {
				t.Fatalf("healed cluster cannot commit: %v", err)
			}
			check("after healing")
		})
	}
}
