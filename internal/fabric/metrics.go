package fabric

import (
	"fmt"
	"time"

	"repro/internal/cdg"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// EventReport describes what one Apply did: how much of the fabric's
// forwarding state the event touched and how long the repair took. These
// are the operational metrics of a fail-in-place subnet manager — the
// smaller RepairedDests and the delta, the less re-cabling the live
// network observes.
type EventReport struct {
	// Epoch is the snapshot version published by this event (unchanged
	// for no-ops).
	Epoch uint64
	// Event is the applied reconfiguration.
	Event Event
	// NoOp is true when the event did not change the topology (failing an
	// already-failed link, joining an alive one).
	NoOp bool
	// RepairedDests counts destinations whose paths were recomputed;
	// TotalDests is the size of the destination set (what a full recompute
	// would route).
	RepairedDests, TotalDests int
	// UnreachableDests counts destinations left without routes
	// (disconnected by the event).
	UnreachableDests int
	// LayerRebuilds counts layers whose incremental repair was infeasible
	// and which were re-routed wholesale; FullRecompute is true when the
	// whole fabric had to be re-routed from scratch.
	LayerRebuilds int
	FullRecompute bool
	// RootsReused counts layer repairs that accepted a cached escape root,
	// skipping the betweenness-centrality pass.
	RootsReused int
	// Seeded counts the surviving old-configuration dependencies carried
	// into the repair CDGs (the UPR-style old+new union).
	Seeded cdg.SeedStats
	// Delta compares the published table against the previous epoch's.
	Delta routing.TableDelta
	// Latency is the wall-clock time of the reconfiguration (repair +
	// verification + publication).
	Latency time.Duration
	// RepairTime is the wall time of the layer-job barrier (zero when no
	// job ran: nothing affected, or FullRecompute mode); CertifyTime that
	// of verifier + post-check, summed over the attempts of an event that
	// fell back to a full recompute. Both are parts of Latency.
	RepairTime, CertifyTime time.Duration
	// Verified is true when the transition was checked by the routing
	// verifier (connectivity + deadlock freedom).
	Verified bool
	// PostChecked is true when the transition passed the configured
	// PostCheck hook (typically the independent oracle).
	PostChecked bool
	// CastGroups counts the multicast groups in the published epoch;
	// CastKept the trees carried over verbatim from the previous epoch,
	// CastRebuilt the trees grown from scratch and CastUBM the members
	// served over unicast-leg fallback. All zero without Options.Groups.
	CastGroups, CastKept, CastRebuilt, CastUBM int
}

func (r *EventReport) String() string {
	mode := "incremental"
	if r.FullRecompute {
		mode = "full"
	}
	if r.NoOp {
		mode = "no-op"
	}
	return fmt.Sprintf("epoch %d: %s — %s, repaired %d/%d dests, %.1f%% entries unchanged, %s",
		r.Epoch, r.Event, mode, r.RepairedDests, r.TotalDests,
		r.Delta.UnchangedFraction()*100, r.Latency.Round(time.Microsecond))
}

// Metrics aggregates EventReports over a manager's lifetime.
type Metrics struct {
	// Events counts Apply calls; NoOps those that changed nothing.
	Events, NoOps int
	// RepairedDests sums repaired destinations; DestRoutes sums
	// TotalDests, so RepairedDests/DestRoutes is the fraction of path
	// computations an equivalent full-recompute manager would have done.
	RepairedDests, DestRoutes int
	// LayerRebuilds and FullRecomputes count repair fallbacks.
	LayerRebuilds, FullRecomputes int
	// RootsReused counts layer repairs served from the escape-root cache.
	RootsReused int
	// Delta accumulates per-event table deltas.
	Delta routing.TableDelta
	// Latency sums EventReport.Latency.
	Latency time.Duration
	// CastKept and CastRebuilds sum per-event cast-tree outcomes.
	CastKept, CastRebuilds int
}

// record publishes one event's outcome into the telemetry bundle.
// Counter semantics mirror Metrics.add exactly, so the lifetime
// aggregates and the scrapeable counters can be cross-checked (the
// telemetry-consistency tests pin fabric_events_applied_total +
// fabric_events_noop_total == Metrics.Events and
// fabric_repaired_dests_total == Metrics.RepairedDests). Nil-safe.
func recordEvent(tm *telemetry.FabricMetrics, r *EventReport, err error) {
	if tm == nil {
		return
	}
	if err != nil {
		tm.Errors.Inc()
		return
	}
	if r.NoOp {
		tm.NoOps.Inc()
		return
	}
	tm.EventsApplied.Inc()
	tm.RepairedDests.Add(int64(r.RepairedDests))
	tm.UnreachableDests.Add(int64(r.UnreachableDests))
	tm.RepairScope.Observe(int64(r.RepairedDests))
	tm.LayerRebuilds.Add(int64(r.LayerRebuilds))
	if r.FullRecompute {
		tm.FullRecomputes.Inc()
	}
	tm.SeededChannels.Add(int64(r.Seeded.Channels))
	tm.SeededDeps.Add(int64(r.Seeded.Deps))
	tm.EntriesChanged.Add(int64(r.Delta.Changed))
	tm.EntriesAdded.Add(int64(r.Delta.Added))
	tm.EntriesRemoved.Add(int64(r.Delta.Removed))
	tm.PublishNanos.Observe(r.Latency.Nanoseconds())
	tm.RepairNanos.Observe(r.RepairTime.Nanoseconds())
	tm.CertifyNanos.Observe(r.CertifyTime.Nanoseconds())
	tm.Epoch.Set(int64(r.Epoch))
	full := int64(0)
	if r.FullRecompute {
		full = 1
	}
	tm.Events.Emit("fabric_event", map[string]int64{
		"epoch":          int64(r.Epoch),
		"repaired_dests": int64(r.RepairedDests),
		"total_dests":    int64(r.TotalDests),
		"layer_rebuilds": int64(r.LayerRebuilds),
		"full_recompute": full,
		"latency_ns":     r.Latency.Nanoseconds(),
		"cast_groups":    int64(r.CastGroups),
		"cast_kept":      int64(r.CastKept),
		"cast_rebuilt":   int64(r.CastRebuilt),
	})
}

// add folds one event report into the lifetime aggregates.
func (m *Metrics) add(r *EventReport) {
	m.Events++
	if r.NoOp {
		m.NoOps++
		return
	}
	m.RepairedDests += r.RepairedDests
	m.DestRoutes += r.TotalDests
	m.LayerRebuilds += r.LayerRebuilds
	m.RootsReused += r.RootsReused
	if r.FullRecompute {
		m.FullRecomputes++
	}
	m.Delta.Changed += r.Delta.Changed
	m.Delta.Added += r.Delta.Added
	m.Delta.Removed += r.Delta.Removed
	m.Delta.Same += r.Delta.Same
	m.Latency += r.Latency
	m.CastKept += r.CastKept
	m.CastRebuilds += r.CastRebuilt
}
