package shard

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/routing/verify"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestSoakShardFailover is the failure-injection soak: a 3-replica plane
// on a Dragonfly absorbs continuous churn while leaders
// are killed (between events and mid-apply), followers crashed, and the
// leader partitioned away — for a bounded wall-clock budget. Invariants
// held throughout: epochs advance by exactly one per successful apply,
// every published epoch verifies (connectivity + deadlock freedom) and
// is digest-committed on a quorum, at most one term ever commits any
// epoch, and periodic flit-level simulation conserves flits (injected +
// replicated == delivered + in-flight) without deadlocking.
//
// Gated behind NUE_SOAK=1 (budget in seconds via NUE_SOAK_SECONDS,
// default 45). Run it with -race.
func TestSoakShardFailover(t *testing.T) {
	if os.Getenv("NUE_SOAK") == "" {
		t.Skip("set NUE_SOAK=1 to run the failure-injection soak")
	}
	budget := 45 * time.Second
	if s := os.Getenv("NUE_SOAK_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs < 1 {
			t.Fatalf("NUE_SOAK_SECONDS=%q: %v", s, err)
		}
		budget = time.Duration(secs) * time.Second
	}

	reg := telemetry.New()
	tp := topology.Dragonfly(4, 2, 2, 9)
	p, err := New(tp, Options{
		Replicas:  3,
		Fabric:    fabric.Options{MaxVCs: 4, Seed: 1, Verify: true},
		Telemetry: reg.Shard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := newChurnGen(tp, 42)
	rng := rand.New(rand.NewSource(4242))
	quorum := p.Cluster().Size()/2 + 1

	aliveCount := func() int {
		n := 0
		for id := 0; id < p.Cluster().Size(); id++ {
			if p.Cluster().Alive(id) {
				n++
			}
		}
		return n
	}
	recover := func(step int) {
		p.SetBeforeCommit(nil)
		p.Cluster().Heal()
		for id := 0; id < p.Cluster().Size(); id++ {
			p.Revive(id)
		}
		if _, _, err := p.Failover(); err != nil {
			t.Fatalf("step %d: failover after full revival: %v", step, err)
		}
	}

	deadline := time.Now().Add(budget)
	epoch := p.Epoch()
	step, faults, failovers := 0, 0, 0
	for time.Now().Before(deadline) {
		step++
		ev := gen.next(t, 0.35)

		injected := -1
		if step%5 == 0 {
			leader, _ := p.Leader()
			injected = rng.Intn(4)
			switch injected {
			case 0: // kill the leader between events
				p.Kill(leader)
			case 1: // kill the leader mid-apply, after repair, before commit
				armed := true
				p.SetBeforeCommit(func() {
					if armed {
						armed = false
						p.Kill(leader)
					}
				})
			case 2: // crash a follower, but never break quorum ourselves
				follower := (leader + 1 + rng.Intn(p.Cluster().Size()-1)) % p.Cluster().Size()
				if aliveCount()-1 >= quorum && p.Cluster().Alive(follower) {
					p.Kill(follower)
				}
			case 3: // partition the leader into a minority
				p.Cluster().Partition([]int{leader})
			}
			faults++
		}

		rep, err := p.Apply(ev)
		if injected == 1 {
			p.SetBeforeCommit(nil)
		}
		if err != nil {
			// The injected fault cost this term its quorum: nothing may have
			// published; heal, fail over, and re-propose the SAME event.
			if got := p.Epoch(); got != epoch {
				t.Fatalf("step %d: failed apply moved the epoch %d -> %d", step, epoch, got)
			}
			recover(step)
			failovers++
			if rep, err = p.Apply(ev); err != nil {
				t.Fatalf("step %d: re-proposed event after failover: %v", step, err)
			}
		}
		if !rep.NoOp {
			if rep.Epoch != epoch+1 {
				t.Fatalf("step %d: epoch jumped %d -> %d", step, epoch, rep.Epoch)
			}
			epoch = rep.Epoch
		}

		if step%10 == 0 {
			snap := p.View()
			if _, err := verify.Check(snap.Net, snap.Result, nil); err != nil {
				t.Fatalf("step %d: published snapshot invalid: %v", step, err)
			}
			assertCommitted(t, p)

			// Flit-level conservation on the live tables.
			terms := snap.Net.Terminals()
			var msgs []sim.Message
			for tries := 0; len(msgs) < 40 && tries < 400; tries++ {
				src := terms[rng.Intn(len(terms))]
				dst := terms[rng.Intn(len(terms))]
				if src == dst || snap.Result.Table.Next(src, dst) == graph.NoChannel {
					continue
				}
				msgs = append(msgs, sim.Message{Src: src, Dst: dst})
			}
			cfg := sim.DefaultConfig()
			cfg.MaxCycles = 500_000
			r, err := sim.Run(snap.Net, snap.Result, msgs, cfg)
			if err != nil {
				t.Fatalf("step %d: sim: %v", step, err)
			}
			if r.Deadlocked {
				t.Fatalf("step %d: simulation deadlocked on published tables", step)
			}
			if r.InjectedFlits != r.DeliveredFlits+r.InFlightFlits {
				t.Fatalf("step %d: flit conservation violated: injected %d != delivered %d + in-flight %d",
					step, r.InjectedFlits, r.DeliveredFlits, r.InFlightFlits)
			}
		}
	}

	// Epoch-monotonicity and single-term commitment over the whole run.
	for e := uint64(0); e <= epoch; e++ {
		entry, ok := p.Cluster().CommittedAt(e)
		if !ok {
			t.Fatalf("epoch %d has no commit quorum at soak end", e)
		}
		if entry.Epoch != e {
			t.Fatalf("epoch %d committed under index %d", e, entry.Epoch)
		}
		if terms := p.Cluster().CommittedTermsAt(e); len(terms) != 1 {
			t.Fatalf("epoch %d committed under terms %v, want exactly one", e, terms)
		}
	}
	c := reg.Snapshot().Counters
	t.Logf("soak: %d steps, %d epochs, %d faults injected, %d failovers; %d epochs committed, %d elections, %d deposals",
		step, epoch, faults, failovers,
		c["shard_epochs_committed_total"], c["shard_elections_total"], c["shard_deposed_total"])
	if failovers == 0 {
		t.Error("soak never exercised a failover")
	}
	if c["shard_epochs_committed_total"] != int64(epoch)+1 || c["shard_elections_total"] != int64(failovers)+1 {
		t.Errorf("telemetry counted %d commits and %d elections, want %d (initial + epochs) and %d (initial + failovers)",
			c["shard_epochs_committed_total"], c["shard_elections_total"], epoch+1, failovers+1)
	}
}
