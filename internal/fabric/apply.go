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
// state is mutated, the snapshot is built but not stored, OnPublish has
// not fired. A gate can only veto, never replace: a non-nil error
// rejects the epoch exactly like a verifier failure — the event is
// reverted and nothing is published — and nil publishes the candidate
// as certified. The replicated control plane commits the epoch
// to its log here. The gate runs under the manager's event lock
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
	return m.ApplyGated(ev, nil)
}

// ApplyGated is the epoch transaction, the only one there is: mutate →
// repair (layer jobs through par.For on Options.Workers) → gate →
// publish, with the event reverted when the repair or the gate fails. A
// nil gate passes everything; Apply is ApplyGated(ev, nil).
func (m *Manager) ApplyGated(ev Event, gate Gate) (*EventReport, error) {
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
		recordEvent(m.opts.Telemetry, report, nil)
		return report, nil
	}
	abort := func(err error) (*EventReport, error) {
		m.st.revert(ev, changed)
		recordEvent(m.opts.Telemetry, report, err)
		return nil, fmt.Errorf("fabric: %s: %w", ev, err)
	}

	newNet := m.st.working.Clone()
	res, err := m.run.retable(old, newNet, changed, report)
	if err != nil {
		return abort(err)
	}
	snap := &Snapshot{Epoch: old.Epoch + 1, Net: newNet, Result: res}
	if gate != nil {
		if err := gate(&Candidate{Event: ev, Snap: snap, m: m}); err != nil {
			return abort(err)
		}
	}

	// Only an epoch that passed the gate may become visible to readers
	// and agents.
	report.Delta = routing.Diff(old.Result.Table, res.Table)
	report.Epoch = snap.Epoch
	report.Latency = time.Since(start)
	m.snap.Store(snap)
	if m.opts.OnPublish != nil {
		m.opts.OnPublish(snap)
	}
	recordEvent(m.opts.Telemetry, report, nil)
	return report, nil
}
