package shard

import (
	"errors"
	"go/build"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// churnGen draws connectivity-preserving churn events against its own
// shadow fabric.State, so tests can drive a Plane (which exposes no
// event generator) with the same trace semantics fabric.Manager tests
// use. next tracks the event as applied; a test that re-proposes a
// failed event must reuse the returned event, not draw a new one.
type churnGen struct {
	st  *fabric.State
	rng *rand.Rand
}

func newChurnGen(tp *topology.Topology, seed int64) *churnGen {
	return &churnGen{st: fabric.NewState(tp.Net), rng: rand.New(rand.NewSource(seed))}
}

func (g *churnGen) next(t *testing.T, pJoin float64) fabric.Event {
	t.Helper()
	ev, ok := g.st.RandomEvent(g.rng, pJoin)
	if !ok {
		t.Fatal("no churn event possible")
	}
	g.st.Mutate(ev)
	return ev
}

// assertCommitted checks the published snapshot against the replicated
// log: the epoch must be committed, under exactly one term, with the
// published table's digest.
func assertCommitted(t *testing.T, p *Plane) {
	t.Helper()
	snap := p.View()
	entry, ok := p.Cluster().CommittedAt(snap.Epoch)
	if !ok {
		t.Fatalf("published epoch %d not committed on a quorum", snap.Epoch)
	}
	if got, want := entry.Digest, snap.Result.Table.Digest(); got != want {
		t.Fatalf("epoch %d: committed digest %#x, published %#x", snap.Epoch, got, want)
	}
	if terms := p.Cluster().CommittedTermsAt(snap.Epoch); len(terms) != 1 {
		t.Fatalf("epoch %d committed under terms %v, want exactly one", snap.Epoch, terms)
	}
}

// TestPlaneChurnDragonfly drives link churn through a 4-shard, 3-replica
// plane on a Dragonfly: every epoch must verify, commit to a quorum
// under one term, and be digest-recorded in the replicated log; the
// telemetry counters must mirror the plane's aggregates.
func TestPlaneChurnDragonfly(t *testing.T) {
	reg := telemetry.New()
	tp := topology.Dragonfly(4, 2, 2, 9)
	p, err := New(tp, Options{
		Shards:    4,
		Replicas:  3,
		Fabric:    fabric.Options{MaxVCs: 4, Seed: 1, Verify: true},
		Telemetry: reg.Shard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if leader, term := p.Leader(); leader != 0 || term != 1 {
		t.Fatalf("initial leadership = (%d, %d), want (0, 1)", leader, term)
	}
	assertCommitted(t, p)

	gen := newChurnGen(tp, 7)
	const events = 12
	for i := 0; i < events; i++ {
		ev := gen.next(t, 0.3)
		rep, err := p.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): %v", i, ev, err)
		}
		if rep.NoOp {
			t.Fatalf("event %d (%s): unexpected no-op", i, ev)
		}
		if rep.Term != 1 || rep.Leader != 0 {
			t.Fatalf("event %d committed under (%d, %d), want (0, 1)", i, rep.Leader, rep.Term)
		}
		snap := p.View()
		if snap.Epoch != rep.Epoch || snap.Epoch != uint64(i+1) {
			t.Fatalf("event %d: snapshot epoch %d, report %d, want %d", i, snap.Epoch, rep.Epoch, i+1)
		}
		if !rep.Verified {
			t.Fatalf("event %d: transition not verified", i)
		}
		if _, err := verify.Check(snap.Net, snap.Result, nil); err != nil {
			t.Fatalf("event %d: published snapshot invalid: %v", i, err)
		}
		assertCommitted(t, p)
	}

	m := p.Metrics()
	if m.Events != events {
		t.Fatalf("metrics counted %d events, want %d", m.Events, events)
	}
	if m.EpochsCommitted != events+1 {
		t.Fatalf("epochs committed = %d, want %d (initial + events)", m.EpochsCommitted, events+1)
	}
	if m.LocalJobs+m.SeamJobs == 0 {
		t.Fatal("no layer job was ever scheduled")
	}
	if m.Deposals != 0 || m.Elections != 1 {
		t.Fatalf("unexpected leadership churn: %d deposals, %d elections", m.Deposals, m.Elections)
	}

	s := reg.Snapshot()
	if got := s.Counters["shard_epochs_committed_total"]; got != int64(m.EpochsCommitted) {
		t.Errorf("shard_epochs_committed_total = %d, want %d", got, m.EpochsCommitted)
	}
	if got := s.Counters["shard_local_jobs_total"] + s.Counters["shard_seam_jobs_total"]; got != int64(m.LocalJobs+m.SeamJobs) {
		t.Errorf("job counters = %d, want %d", got, m.LocalJobs+m.SeamJobs)
	}
	if s.Gauges["shard_term"] != 1 || s.Gauges["shard_leader"] != 0 {
		t.Errorf("telemetry leadership = (%d, %d), want (0, 1)",
			s.Gauges["shard_leader"], s.Gauges["shard_term"])
	}
}

// TestKillLeaderMidRepair kills the leader BETWEEN the repair
// computation and the quorum append (the beforeCommit hook): the epoch
// must not commit or publish, the plane must refuse further events
// until failover, and the re-proposed event must commit cleanly under
// the successor's term — with zero uncertified epochs throughout.
func TestKillLeaderMidRepair(t *testing.T) {
	tp := topology.Dragonfly(4, 2, 2, 9)
	p, err := New(tp, Options{
		Shards:   4,
		Replicas: 3,
		Fabric:   fabric.Options{MaxVCs: 4, Seed: 1, Verify: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := newChurnGen(tp, 11)
	for i := 0; i < 3; i++ {
		if _, err := p.Apply(gen.next(t, 0.3)); err != nil {
			t.Fatalf("warm-up event %d: %v", i, err)
		}
	}
	before := p.View()

	// Arm the mid-repair kill: the leader dies after computing the repair
	// but before proposing it to the log.
	armed := true
	p.SetBeforeCommit(func() {
		if armed {
			armed = false
			p.Kill(0)
		}
	})
	ev := gen.next(t, 0.3)
	if _, err := p.Apply(ev); !errors.Is(err, ErrDeposed) {
		t.Fatalf("apply with killed leader: err=%v, want ErrDeposed", err)
	}
	p.SetBeforeCommit(nil)

	// Nothing may have committed or published.
	if got := p.View(); got.Epoch != before.Epoch {
		t.Fatalf("epoch moved to %d after a failed commit, want %d", got.Epoch, before.Epoch)
	}
	if _, ok := p.Cluster().CommittedAt(before.Epoch + 1); ok {
		t.Fatal("the aborted epoch reached a commit quorum")
	}
	if terms := p.Cluster().CommittedTermsAt(before.Epoch + 1); len(terms) != 0 {
		t.Fatalf("aborted epoch committed under terms %v", terms)
	}

	// The plane refuses events until failover.
	if _, err := p.Apply(ev); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("apply without leader: err=%v, want ErrNoLeader", err)
	}

	leader, term, err := p.Failover()
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if leader != 1 || term < 2 {
		t.Fatalf("failover elected (%d, %d), want replica 1 at a later term", leader, term)
	}
	if got := p.View(); got.Epoch != before.Epoch {
		t.Fatalf("failover restored epoch %d, want %d", got.Epoch, before.Epoch)
	}

	// Re-propose the same event on the successor: it must commit.
	rep, err := p.Apply(ev)
	if err != nil {
		t.Fatalf("re-proposed event: %v", err)
	}
	if rep.Leader != 1 || rep.Term != term {
		t.Fatalf("re-proposed epoch committed under (%d, %d), want (1, %d)", rep.Leader, rep.Term, term)
	}
	snap := p.View()
	if snap.Epoch != before.Epoch+1 {
		t.Fatalf("epoch = %d, want %d", snap.Epoch, before.Epoch+1)
	}
	if _, err := verify.Check(snap.Net, snap.Result, nil); err != nil {
		t.Fatalf("post-failover snapshot invalid: %v", err)
	}
	assertCommitted(t, p)

	// Drop to one alive replica: no quorum, no progress, until revival.
	p.Kill(1)
	if _, err := p.Apply(gen.next(t, 0.3)); err == nil {
		t.Fatal("apply committed with 1/3 replicas alive")
	}
	if _, _, err := p.Failover(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("failover with 1/3 alive: err=%v, want ErrNoQuorum", err)
	}
	p.Revive(0)
	if leader, _, err = p.Failover(); err != nil {
		t.Fatalf("failover after revival: %v", err)
	}
	if leader != 2 {
		// Replica 0 missed the epochs committed while it was dead; the
		// election restriction must have rejected it.
		t.Fatalf("failover elected stale replica %d, want 2", leader)
	}
	// The plane keeps working; every epoch ever published stays committed.
	for i := 0; i < 3; i++ {
		if _, err := p.Apply(gen.next(t, 0.3)); err != nil {
			t.Fatalf("post-recovery event %d: %v", i, err)
		}
		assertCommitted(t, p)
	}
	for e := uint64(0); e <= p.Epoch(); e++ {
		if terms := p.Cluster().CommittedTermsAt(e); len(terms) != 1 {
			t.Fatalf("epoch %d committed under terms %v, want exactly one", e, terms)
		}
	}
	m := p.Metrics()
	if m.Deposals == 0 || m.Elections < 3 {
		t.Fatalf("metrics missed the leadership churn: %+v", m)
	}
}

// TestRefusedProposalRecovers: only the manager's certification may
// refuse a proposal, and the plane must recover from it exactly as the
// monolithic manager does. A 4-shard, 3-replica plane and a manager
// replay one trace, each with a PostCheck that refuses its first call
// after construction and runs the oracle after that. The refused
// incremental repair must be replaced by a full recompute on both sides,
// the plane's log must commit exactly the published table, and the two
// must stay digest-equal after every event.
func TestRefusedProposalRecovers(t *testing.T) {
	tp := topology.Dragonfly(4, 2, 2, 9)
	refuseOnce := func(armed *bool) func(*graph.Network, *routing.Result) error {
		return func(net *graph.Network, res *routing.Result) error {
			if *armed {
				*armed = false
				return errors.New("refused once")
			}
			_, err := oracle.Certify(net, res, oracle.Options{})
			return err
		}
	}
	var mgrArmed, planeArmed bool
	opts := fabric.Options{MaxVCs: 4, Seed: 1, Verify: true}
	opts.PostCheck = refuseOnce(&mgrArmed)
	mgr, err := fabric.NewManager(tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PostCheck = refuseOnce(&planeArmed)
	p, err := New(tp, Options{Shards: 4, Replicas: 3, Fabric: opts})
	if err != nil {
		t.Fatal(err)
	}
	mgrArmed, planeArmed = true, true

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		ev, ok := mgr.RandomEvent(rng, 0.3)
		if !ok {
			t.Fatal("no churn event possible")
		}
		mrep, err := mgr.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): monolithic: %v", i, ev, err)
		}
		rep, err := p.Apply(ev)
		if err != nil {
			t.Fatalf("event %d (%s): sharded: %v", i, ev, err)
		}
		if i == 0 && !(rep.FullRecompute && mrep.FullRecompute) {
			t.Fatalf("refused proposal: full recompute plane=%v manager=%v, want both",
				rep.FullRecompute, mrep.FullRecompute)
		}
		if !rep.Verified || !rep.PostChecked {
			t.Fatalf("event %d: published verified=%v post-checked=%v", i, rep.Verified, rep.PostChecked)
		}
		assertCommitted(t, p)
		if md, pd := mgr.View().Result.Table.Digest(), p.View().Result.Table.Digest(); md != pd {
			t.Fatalf("event %d (%s): monolithic %#x, sharded %#x", i, ev, md, pd)
		}
	}
}

// TestPlaneImportsNoCertifier pins the plane's gate as a pure veto: the
// package's non-test code does not import the oracle, so the one
// transition verdict per epoch is the distribution source's.
func TestPlaneImportsNoCertifier(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "repro/internal/oracle" {
			t.Fatalf("internal/shard imports %s: the plane must not certify transitions", imp)
		}
	}
}

// TestPlaneFabricTelemetryConsistency is the plane-side twin of
// fabric.TestFabricTelemetryConsistency: a plane handed
// Fabric.Telemetry must record the fabric_* metrics exactly as a
// monolithic manager does — there is one epoch transaction, so one place
// that records it — through a no-op, a dead-leader apply and a failover.
func TestPlaneFabricTelemetryConsistency(t *testing.T) {
	reg := telemetry.New()
	tp := topology.Dragonfly(4, 2, 2, 9)
	p, err := New(tp, Options{
		Shards:    4,
		Replicas:  3,
		Fabric:    fabric.Options{MaxVCs: 4, Seed: 1, Verify: true, Telemetry: reg.Fabric()},
		Telemetry: reg.Shard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := newChurnGen(tp, 7)
	committed := 0
	apply := func(ev fabric.Event) *Report {
		t.Helper()
		rep, err := p.Apply(ev)
		if err != nil {
			t.Fatalf("%s: %v", ev, err)
		}
		if !rep.NoOp {
			committed++
		}
		return rep
	}
	var last fabric.Event
	for i := 0; i < 6; i++ {
		last = gen.next(t, 0)
		apply(last)
	}
	// Failing a link that is already down changes nothing.
	if rep := apply(last); !rep.NoOp {
		t.Fatalf("re-applied %s: not a no-op", last)
	}
	// One apply under a dead leader: computed, never committed.
	leader, _ := p.Leader()
	p.Kill(leader)
	ev := gen.next(t, 0.3)
	if _, err := p.Apply(ev); !errors.Is(err, ErrDeposed) {
		t.Fatalf("apply under a dead leader: err=%v, want ErrDeposed", err)
	}
	if _, _, err := p.Failover(); err != nil {
		t.Fatalf("failover: %v", err)
	}
	p.Revive(leader)
	apply(ev)
	for i := 0; i < 4; i++ {
		apply(gen.next(t, 0.3))
	}

	mt := p.Metrics()
	s := reg.Snapshot()
	if mt.Events != committed+1 {
		t.Fatalf("Metrics.Events = %d, want %d committed + 1 no-op", mt.Events, committed)
	}
	if got := s.Counters["fabric_events_applied_total"] + s.Counters["fabric_events_noop_total"]; got != int64(mt.Events) {
		t.Errorf("applied+noop = %d, want Metrics.Events = %d", got, mt.Events)
	}
	if got := s.Counters["fabric_events_noop_total"]; got != 1 {
		t.Errorf("fabric_events_noop_total = %d, want 1", got)
	}
	if got := s.Counters["fabric_repaired_dests_total"]; got != int64(mt.RepairedDests) {
		t.Errorf("fabric_repaired_dests_total = %d, want Metrics.RepairedDests = %d", got, mt.RepairedDests)
	}
	if got := s.Gauges["fabric_epoch"]; got != int64(p.Epoch()) || p.Epoch() != uint64(committed) {
		t.Errorf("fabric_epoch = %d, plane epoch %d, want %d", got, p.Epoch(), committed)
	}
	if got := s.Counters["fabric_events_failed_total"]; got != 1 {
		t.Errorf("fabric_events_failed_total = %d, want 1 (the dead-leader apply)", got)
	}
	if got := s.Histograms["fabric_epoch_publish_nanos"].Count; got != int64(committed) {
		t.Errorf("fabric_epoch_publish_nanos count = %d, want %d committed events", got, committed)
	}
	// The control-plane counters still agree with the log, and count the
	// jobs of committed epochs only, as Metrics does.
	if got := s.Counters["shard_epochs_committed_total"]; got != int64(committed+1) {
		t.Errorf("shard_epochs_committed_total = %d, want %d (initial + events)", got, committed+1)
	}
	if got := s.Counters["shard_local_jobs_total"]; got != int64(mt.LocalJobs) {
		t.Errorf("shard_local_jobs_total = %d, want Metrics.LocalJobs = %d", got, mt.LocalJobs)
	}
	if got := s.Counters["shard_seam_jobs_total"]; got != int64(mt.SeamJobs) {
		t.Errorf("shard_seam_jobs_total = %d, want Metrics.SeamJobs = %d", got, mt.SeamJobs)
	}
}

// TestPlaneSeamJobsPooledDigestEqual replays one 40-event trace through
// two torus planes that differ only in Fabric.Workers, 1 and 4, with
// every layer job on the coordinator: the first plane runs them one
// after another, the second on a pool of four (goroutines, whatever
// GOMAXPROCS is, which is what -race needs). Tables must be
// digest-equal after every event.
func TestPlaneSeamJobsPooledDigestEqual(t *testing.T) {
	tp := topology.Torus3D(4, 4, 4, 1, 1)
	var planes [2]*Plane
	for i, workers := range []int{1, 4} {
		p, err := New(tp, Options{
			Shards: 4,
			Fabric: fabric.Options{MaxVCs: 4, Seed: 1, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Four slabs leave about one job in twenty inside a single slab.
		// Take every node's home away, so that HomeRegion finds none for
		// any job; which channels are the seam stays as partitioned.
		for n := range p.regions.Of {
			p.regions.Of[n] = -1
		}
		planes[i] = p
	}
	gen := newChurnGen(tp, 21)
	pooled := 0 // events whose seam jobs could overlap
	for i := 0; i < 40; i++ {
		ev := gen.next(t, 0.3)
		var reps [2]*Report
		for k, p := range planes {
			rep, err := p.Apply(ev)
			if err != nil {
				t.Fatalf("event %d (%s), plane %d: %v", i, ev, k, err)
			}
			reps[k] = rep
		}
		if reps[1].LocalJobs != 0 {
			t.Fatalf("event %d (%s): %d region-local jobs; the test wants every job on the coordinator",
				i, ev, reps[1].LocalJobs)
		}
		if reps[1].SeamJobs > 1 {
			pooled++
		}
		a, b := planes[0].View(), planes[1].View()
		if a.Epoch != b.Epoch || a.Result.Table.Digest() != b.Result.Table.Digest() {
			t.Fatalf("event %d (%s): workers 1 published %d:%#x, workers 4 %d:%#x", i, ev,
				a.Epoch, a.Result.Table.Digest(), b.Epoch, b.Result.Table.Digest())
		}
	}
	if pooled < 20 {
		t.Fatalf("only %d of 40 events had two or more seam jobs to pool", pooled)
	}
}
