// Package shard is the replicated fabric control plane: a
// fabric.Manager whose epochs commit to a replicated log before they are
// published, and a failover that elects a successor and restores the
// manager from the last committed epoch, so repair survives controller
// crashes and network partitions.
//
// The plane runs every epoch through the manager's one transaction,
// passing in a pre-publication gate that only vetoes (quorum commit). It
// changes WHO may publish an epoch, never what is computed or certified;
// every layer repair runs on the manager's one pool, so Fabric.Workers
// bounds it. That is the digest-equality contract: on identical churn
// traces the plane publishes bit-identical forwarding tables to a
// monolithic fabric.Manager. Whether the old+new table swap needs a drain
// is decided once, by the distribution source that performs it
// (internal/distrib, DESIGN §16).
package shard

import (
	"errors"
	"math/rand"
	"sync"

	"repro/internal/fabric"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// ErrNoLeader reports that the plane currently has no elected leader
// (the last one died or was deposed); call Failover to elect one.
var ErrNoLeader = errors.New("shard: no leader, run failover")

// Options configures a Plane.
type Options struct {
	// Deprecated: read by nothing. The plane no longer partitions the
	// fabric into regions (DESIGN §16); the field stays only until the
	// benchmark stops setting it.
	Shards int
	// Replicas is the epoch-log replication factor (default 1). Quorum is
	// a strict majority, so 3 replicas survive one crash, 5 survive two.
	Replicas int
	// Fabric configures the embedded fabric.Manager — the SAME options a
	// monolithic one would take. Fabric.OnPublish is called once per
	// committed epoch (leader publication). Fabric.Workers is handed to
	// the routing engine and sizes the manager's worker pool, so it
	// bounds the initial routing, every full recompute, every layer
	// repair and the overlap of Verify with PostCheck.
	Fabric fabric.Options
	// OnReplicate, when non-nil, is called for every ALIVE replica after
	// an epoch commits — the per-replica distribution seam (hand the
	// snapshot to that replica's distrib.Source so a standby publisher
	// can serve agents after failover).
	OnReplicate func(replica int, snap *fabric.Snapshot)
	// Telemetry, when non-nil, receives shard_* counters.
	Telemetry *telemetry.ShardMetrics
}

// Report describes one plane Apply: the fabric repair report plus the
// control-plane view, which term/leader committed it.
type Report struct {
	fabric.EventReport
	// Term and Leader identify the committing leadership.
	Term   uint64
	Leader int

	// Deprecated: always zero. The plane has no regions, so no job is
	// local or seam (DESIGN §16); these stay only until the benchmark
	// stops reading them.
	LocalJobs, SeamJobs int
	// Deprecated: always false. The plane no longer certifies
	// transitions (the distribution source decides drains, DESIGN §16);
	// this field and the two below stay only until the benchmark stops
	// reading them.
	SeamCertified bool
	// Deprecated: always nil, see SeamCertified.
	SeamVeto error
	// Deprecated: always false, see SeamCertified.
	SeamDrain bool
}

// Plane is a replicated fabric control plane. It exposes the same
// Apply/View/Epoch surface as fabric.Manager because it holds one: the
// manager runs the epoch transaction, the plane supplies what is its own,
// a gate that commits the epoch to a majority of replicas under a
// leadership term before it may be published, and failover.
type Plane struct {
	opts    Options
	cluster *Cluster
	// mgr owns state, runner, snapshot and fabric telemetry. It is never
	// handed out: a plane's epochs only go through its gate, so the
	// ungated Manager.Apply must stay unreachable.
	mgr *fabric.Manager

	mu     sync.Mutex // serializes Apply/Failover; guards below
	leader int        // current leader replica, -1 when none
	term   uint64

	// beforeCommit, when non-nil, runs after the repair computation and
	// before the quorum append — the hook failover tests use to kill the
	// leader deterministically mid-apply.
	beforeCommit func()
}

// New elects replica 0 leader, routes tp from scratch and commits the
// initial epoch to a quorum before publishing it.
func New(tp *topology.Topology, opts Options) (*Plane, error) {
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Telemetry == nil {
		// The zero bundle's nil handles are no-ops, so recording sites
		// need no nil checks.
		opts.Telemetry = &telemetry.ShardMetrics{}
	}
	p := &Plane{opts: opts, cluster: NewCluster(opts.Replicas)}
	term, err := p.cluster.TryElect(0)
	if err != nil {
		return nil, err
	}
	p.leader, p.term = 0, term
	fopts := opts.Fabric
	fopts.OnPublish = p.publish
	p.mgr, err = fabric.NewGatedManager(tp, fopts, p.commit)
	if err != nil {
		return nil, err
	}
	opts.Telemetry.Elections.Inc()
	opts.Telemetry.Term.Set(int64(term))
	opts.Telemetry.Leader.Set(0)
	return p, nil
}

// commit appends the candidate epoch to the replicated log under the
// current term — the last step of the plane's gate, and all of it for
// the initial epoch. Runs under mu (or before the plane is shared).
func (p *Plane) commit(c *fabric.Candidate) error {
	linkFailed, nodeDown := c.Bookkeeping()
	err := p.cluster.Append(p.leader, p.term, Entry{
		Epoch:      c.Snap.Epoch,
		Digest:     c.Snap.Result.Table.Digest(),
		Snap:       c.Snap,
		LinkFailed: linkFailed,
		NodeDown:   nodeDown,
		Event:      c.Event,
	})
	if err != nil {
		p.leader = -1 // deposed or dead: stop proposing until failover
		p.opts.Telemetry.Deposed.Inc()
		p.opts.Telemetry.Leader.Set(-1)
		return err
	}
	p.opts.Telemetry.EpochsCommitted.Inc()
	return nil
}

// publish is the manager's OnPublish: by then the snapshot is committed
// and installed for readers; fan it out to the leader publication hook
// and every alive replica.
func (p *Plane) publish(snap *fabric.Snapshot) {
	if p.opts.Fabric.OnPublish != nil {
		p.opts.Fabric.OnPublish(snap)
	}
	if p.opts.OnReplicate != nil {
		for id := 0; id < p.cluster.Size(); id++ {
			if p.cluster.Alive(id) {
				p.opts.OnReplicate(id, snap)
			}
		}
	}
}

// Apply processes one churn event through the plane: the manager's epoch
// transaction with the plane's gate (quorum commit) in front of
// publication. What commits is exactly what the manager's certification
// passed, so the forwarding tables it publishes are digest-equal to what
// a monolithic fabric.Manager publishes for the same trace — ownership
// differs, the computation is the same code.
func (p *Plane) Apply(ev fabric.Event) (*Report, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.leader < 0 {
		return nil, ErrNoLeader
	}
	er, err := p.mgr.ApplyGated(ev, p.gate)
	if err != nil {
		return nil, err
	}
	rep := &Report{EventReport: *er, Term: p.term, Leader: p.leader}
	if rep.NoOp {
		return rep, nil
	}
	p.recordEpoch(rep)
	return rep, nil
}

// gate is the plane's pre-publication gate, a pure veto: beforeCommit
// hook, quorum append. An error leaves the event reverted and nothing
// published — a lost quorum (leader killed or partitioned away) is
// recovered by a successor from the last committed epoch.
func (p *Plane) gate(c *fabric.Candidate) error {
	if p.beforeCommit != nil {
		p.beforeCommit()
	}
	return p.commit(c)
}

// Failover elects a new leader deterministically — the lowest-numbered
// alive replica that can assemble a vote quorum — and restores the
// manager from the last committed epoch: replicated bookkeeping and a
// dropped escape-root cache (repairs start cold).
// Returns the new leader and term.
func (p *Plane) Failover() (leader int, term uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lastErr error = ErrNoQuorum
	for id := 0; id < p.cluster.Size(); id++ {
		if !p.cluster.Alive(id) {
			continue
		}
		t, e := p.cluster.TryElect(id)
		if e != nil {
			lastErr = e
			continue
		}
		entry, ok := p.cluster.Committed()
		if !ok {
			return -1, 0, errors.New("shard: no committed epoch to restore from")
		}
		p.leader, p.term = id, t
		p.mgr.Restore(entry.Snap, entry.LinkFailed, entry.NodeDown)
		p.opts.Telemetry.Elections.Inc()
		p.opts.Telemetry.Term.Set(int64(t))
		p.opts.Telemetry.Leader.Set(int64(id))
		return id, t, nil
	}
	return -1, 0, lastErr
}

// Kill marks a replica dead (fault injection). Killing the leader does
// not interrupt an in-flight Apply's computation — its quorum append
// simply fails, so the epoch never commits; the plane then reports
// ErrNoLeader until Failover.
func (p *Plane) Kill(id int) { p.cluster.Kill(id) }

// Revive brings a dead replica back (log intact).
func (p *Plane) Revive(id int) { p.cluster.Revive(id) }

// Cluster exposes the replicated log for tests and fault injection.
func (p *Plane) Cluster() *Cluster { return p.cluster }

// View returns the current committed snapshot.
func (p *Plane) View() *fabric.Snapshot { return p.mgr.View() }

// Epoch returns the current committed epoch.
func (p *Plane) Epoch() uint64 { return p.mgr.Epoch() }

// RandomEvent and RandomSwitchEvent draw the next churn event against
// the plane's live fabric state (see fabric.Manager.RandomEvent).
func (p *Plane) RandomEvent(rng *rand.Rand, pJoin float64) (fabric.Event, bool) {
	return p.mgr.RandomEvent(rng, pJoin)
}

func (p *Plane) RandomSwitchEvent(rng *rand.Rand, pJoin float64) (fabric.Event, bool) {
	return p.mgr.RandomSwitchEvent(rng, pJoin)
}

// Leader returns the current leader replica (-1 when none) and term.
func (p *Plane) Leader() (int, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leader, p.term
}

// SetBeforeCommit installs a hook running between repair computation and
// quorum append (test-only: deterministic mid-apply fault injection).
func (p *Plane) SetBeforeCommit(f func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.beforeCommit = f
}

// recordEpoch emits one committed epoch into the telemetry ring.
func (p *Plane) recordEpoch(rep *Report) {
	t := p.opts.Telemetry
	t.Term.Set(int64(rep.Term))
	t.Leader.Set(int64(rep.Leader))
	if t.Events != nil {
		t.Events.Emit("shard_epoch", map[string]int64{
			"epoch":      int64(rep.Epoch),
			"term":       int64(rep.Term),
			"leader":     int64(rep.Leader),
			"latency_ns": rep.Latency.Nanoseconds(),
		})
	}
}
