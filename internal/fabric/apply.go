package fabric

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Gate is the pre-publication hook of a gated epoch transaction. It runs
// once per candidate epoch, after the repair has been computed and
// certified (Verify, PostCheck) and before anything becomes visible: the
// state is mutated but not re-indexed, the snapshot is built but not
// stored, OnPublish has not fired. A gate can only veto, never replace:
// a non-nil error rejects the epoch exactly like a verifier failure —
// the event is reverted and nothing is published — and nil publishes the
// candidate as certified. The sharded control plane commits the epoch to
// its replicated log here. The gate runs under the manager's event lock
// and must not call back into the manager.
type Gate func(c *Candidate) error

// Candidate is the epoch a Gate decides on.
type Candidate struct {
	// Event is the reconfiguration being applied (zero for the initial
	// epoch).
	Event Event
	// Snap is the epoch that will be published when the gate returns nil.
	Snap *Snapshot

	m *Manager
}

// Bookkeeping returns deep copies of the explicit link-failed and
// switch-down maps as of the candidate epoch — the part of the state a
// replicated epoch log must carry for Manager.Restore (it is not
// derivable from the network alone: a down link under a down switch may
// or may not have failed on its own).
func (c *Candidate) Bookkeeping() (linkFailed map[graph.ChannelID]bool, nodeDown map[graph.NodeID]bool) {
	return c.m.st.bookkeeping()
}

// Apply processes one reconfiguration event: it mutates the manager's
// network view, repairs the routing incrementally (only destinations
// whose forwarding trees traverse a changed channel), and publishes a new
// epoch. Readers keep querying the previous snapshot until the new one is
// atomically installed. Events are serialized; concurrent Apply calls
// queue on an internal lock.
func (m *Manager) Apply(ev Event) (*EventReport, error) {
	return m.ApplyGated(ev, nil, nil)
}

// ApplyGated is the epoch transaction, the only one there is: mutate →
// repair (layer jobs scheduled by exec) → gate → re-index → publish, with
// the event reverted when the repair or the gate fails. A nil exec is the
// manager's own worker pool, a nil gate passes everything; Apply is
// ApplyGated(ev, nil, nil).
func (m *Manager) ApplyGated(ev Event, exec JobExecutor, gate Gate) (*EventReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	old := m.snap.Load()
	report := &EventReport{
		Event:      ev,
		Epoch:      old.Epoch,
		TotalDests: len(old.Result.Table.Dests()),
	}

	changed := m.st.Mutate(ev)
	if len(changed) == 0 {
		report.NoOp = true
		report.Latency = time.Since(start)
		m.metrics.add(report)
		recordEvent(m.opts.Telemetry, report, nil)
		return report, nil
	}
	abort := func(err error) (*EventReport, error) {
		m.st.revert(ev, changed)
		recordEvent(m.opts.Telemetry, report, err)
		return nil, fmt.Errorf("fabric: %s: %w", ev, err)
	}

	newNet := m.st.working.Clone()
	if exec == nil {
		exec = m.PooledJobs
	}
	res, err := m.run.retable(m.st, old, newNet, changed, report, exec)
	if err != nil {
		return abort(err)
	}
	snap := &Snapshot{Epoch: old.Epoch + 1, Net: newNet, Result: res}
	if gate != nil {
		if err := gate(&Candidate{Event: ev, Snap: snap, m: m}); err != nil {
			return abort(err)
		}
	}

	// Only an epoch that passed the gate may update the derived index and
	// become visible to readers and agents.
	m.st.reindexCast(res.Cast)
	report.Delta = routing.Diff(old.Result.Table, res.Table)
	report.Epoch = snap.Epoch
	report.Latency = time.Since(start)
	m.snap.Store(snap)
	if m.opts.OnPublish != nil {
		m.opts.OnPublish(snap)
	}
	m.metrics.add(report)
	recordEvent(m.opts.Telemetry, report, nil)
	return report, nil
}

// PooledJobs is the manager's default JobExecutor: a worker pool bounded
// by Options.Workers. The sharded plane's executor hands it the jobs no
// region owns.
func (m *Manager) PooledJobs(jobs []LayerJob, run func(i int)) {
	runPooled(m.opts.workers(), len(jobs), run)
}
