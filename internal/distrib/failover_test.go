package distrib_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/distrib/agent"
	"repro/internal/fabric"
	"repro/internal/topology"
)

// TestPublisherFailoverMidEpoch: agents wired to a primary AND a standby
// publisher (DialMulti) must survive the primary dying mid-distribution.
// The standby has received every published epoch (running zero-agent
// rounds that advance its committed base, the shard plane's OnReplicate
// contract), so after failover it resumes the fleet by acked-epoch CRC —
// and the fleet converges on the exact tables the control plane
// published, with every agent recording at least one failover.
func TestPublisherFailoverMidEpoch(t *testing.T) {
	rec := newEpochRecord()
	newSrc := func() *distrib.Source {
		return distrib.NewSource(distrib.Options{
			AckTimeout: 10 * time.Second,
			Backoff:    20 * time.Millisecond,
			Certify:    distrib.DefaultCertify,
		})
	}
	primary, standby := newSrc(), newSrc()
	defer primary.Close()
	defer standby.Close()

	// Both publishers receive every epoch, exactly like a shard plane
	// replicating snapshots to every alive replica.
	m, err := fabric.NewManager(topology.Torus3D(3, 3, 2, 1, 1), fabric.Options{
		MaxVCs: 4,
		Seed:   1,
		OnPublish: func(s *fabric.Snapshot) {
			e := distrib.Epoch{Seq: s.Epoch, Net: s.Net, Result: s.Result}
			rec.add(e)
			primary.Publish(e)
			standby.Publish(e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	lnP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnP.Close()
	lnS, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnS.Close()
	go primary.Serve(lnP)
	go standby.Serve(lnS)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const fleet = 8
	addrs := []string{lnP.Addr().String(), lnS.Addr().String()}
	agents := make([]*agent.Agent, fleet)
	for i := range agents {
		agents[i] = agent.New(agent.Options{ID: fmt.Sprintf("a%d", i)})
		go agents[i].DialMulti(ctx, addrs, 30*time.Millisecond)
	}
	// A source nobody has dialled yet is vacuously converged, so wait on
	// the agents: the failover below is only one if every agent was
	// served by the primary first.
	waitFleet := func(min uint64, what string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for _, a := range agents {
			for {
				if ep, _, ok := a.Snapshot(); ok && ep >= min {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("fleet did not reach epoch %d %s", min, what)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	waitFleet(0, "on the primary")

	// Churn on the primary's watch.
	rng := rand.New(rand.NewSource(21))
	mid := churnUntilChange(t, m, rng)
	waitFleet(mid, "before failover")

	// Kill the primary mid-epoch: fire a churn burst and cut the primary
	// while its distribution is (potentially) in flight. Agents must
	// rotate to the standby and resync from their last acked epoch.
	churn(t, m, rng, 3)
	lnP.Close()
	primary.Close()
	// One more epoch the primary never saw, so that reaching `last` means
	// having been served by the standby.
	last := churnUntilChange(t, m, rng)
	// A source with no connections is vacuously converged, so poll the
	// agents themselves: every one must reach `last` via the standby.
	deadline := time.Now().Add(120 * time.Second)
	for {
		n := 0
		for _, a := range agents {
			if ep, _, ok := a.Snapshot(); ok && ep >= last {
				n++
			}
		}
		if n == fleet {
			break
		}
		if time.Now().After(deadline) {
			e, ok := standby.FleetEpoch()
			t.Fatalf("only %d/%d agents reached epoch %d on the standby (standby committed %d/%v, quarantined %v)",
				n, fleet, last, e, ok, standby.Quarantined())
		}
		time.Sleep(2 * time.Millisecond)
	}

	wantCRC, known := rec.crc(last, nil)
	if !known {
		t.Fatalf("epoch %d was never recorded", last)
	}
	for i, a := range agents {
		ep, crc, ok := a.Snapshot()
		if !ok || ep != last || crc != wantCRC {
			t.Fatalf("agent %d after failover: epoch %d ok=%v crc %#x, want epoch %d crc %#x",
				i, ep, ok, crc, last, wantCRC)
		}
		if st := a.Stats(); st.Failovers < 1 {
			t.Errorf("agent %d recorded %d failovers, want >= 1", i, st.Failovers)
		}
	}
}

// TestStandbyResumesByCRC: a standby publisher that never served the
// fleet, and holds e0 only because it was published to it while it had
// no agent (an agent-less round commits), must push the next epoch as a
// DELTA against the base the agent acked to the dead leader — the
// resume-by-CRC path, no full re-sync.
func TestStandbyResumesByCRC(t *testing.T) {
	rec := newEpochRecord()
	srcA := distrib.NewSource(distrib.Options{Certify: distrib.DefaultCertify})
	m := newFleetManager(t, topology.Torus3D(3, 3, 2, 1, 1), srcA, rec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := agent.New(agent.Options{ID: "survivor"})
	srcSide, agSide := net.Pipe()
	go a.Serve(ctx, agSide)
	if err := srcA.AddConn(srcSide); err != nil {
		t.Fatal(err)
	}
	if !srcA.WaitConverged(0, 30*time.Second) {
		t.Fatal("agent did not converge on the initial epoch")
	}
	snap0 := m.View()
	e0 := distrib.Epoch{Seq: snap0.Epoch, Net: snap0.Net, Result: snap0.Result}

	// The leader dies; the agent keeps its installed epoch.
	srcA.Close()
	epBefore, _, ok := a.Snapshot()
	if !ok || epBefore != e0.Seq {
		t.Fatalf("agent lost its installed epoch across the leader crash: %d/%v", epBefore, ok)
	}
	base := a.Stats()

	// The fabric moves on while no publisher serves the fleet.
	rng := rand.New(rand.NewSource(31))
	last := churnUntilChange(t, m, rng)
	snap1 := m.View()
	e1 := distrib.Epoch{Seq: last, Net: snap1.Net, Result: snap1.Result}

	// The standby takes over: e0 reached it the way every epoch reaches
	// a standby, and it must serve e1 as a delta.
	srcB := distrib.NewSource(distrib.Options{Certify: distrib.DefaultCertify})
	defer srcB.Close()
	srcB.Publish(e0)
	if !srcB.WaitConverged(e0.Seq, 30*time.Second) {
		t.Fatal("the agent-less standby did not commit the epoch published to it")
	}
	srcSide2, agSide2 := net.Pipe()
	go a.Serve(ctx, agSide2)
	if err := srcB.AddConn(srcSide2); err != nil {
		t.Fatal(err)
	}
	srcB.Publish(e1)
	if !srcB.WaitConverged(e1.Seq, 30*time.Second) {
		t.Fatal("agent did not converge on the standby's epoch")
	}

	ep, crc, ok := a.Snapshot()
	wantCRC, _ := rec.crc(last, nil)
	if !ok || ep != last || crc != wantCRC {
		t.Fatalf("agent after standby takeover: epoch %d ok=%v crc %#x, want epoch %d crc %#x",
			ep, ok, crc, last, wantCRC)
	}
	st := a.Stats()
	if got := st.DeltaInstalls - base.DeltaInstalls; got != 1 {
		t.Errorf("standby pushed %d delta installs, want 1 (resume-by-CRC)", got)
	}
	if got := st.FullSyncs - base.FullSyncs; got != 0 {
		t.Errorf("standby fell back to %d full syncs, want 0", got)
	}
}
