package telemetry

import "strconv"

// This file defines the pre-wired metric bundles of the three
// instrumented subsystems. Each bundle is a plain struct of nil-safe
// handles: a nil bundle pointer (telemetry off) costs one predictable
// branch per recording site and allocates nothing.

// EngineMetrics instruments the Nue routing engine (internal/core).
type EngineMetrics struct {
	// Routes counts Route invocations; Layers routed virtual layers.
	Routes, Layers *Counter
	// PartitionNanos, BetweennessNanos and DijkstraNanos accumulate the
	// wall time of the three engine phases: destination partitioning
	// (§4.5), escape-root betweenness selection (§4.3), and the per-layer
	// modified-Dijkstra loop (Algorithm 1).
	PartitionNanos, BetweennessNanos, DijkstraNanos *Counter
	// LayerBetweennessNanos and LayerDijkstraNanos are the per-layer
	// distributions of the same phases.
	LayerBetweennessNanos, LayerDijkstraNanos *Histogram
	// DijkstraRuns counts modified-Dijkstra runs (one per routed
	// destination, including those that end in an escape fallback).
	DijkstraRuns *Counter
	// EscapeFallbacks counts destinations routed entirely over escape
	// paths; IslandsResolved impasses solved by backtracking (§4.6.2);
	// ShortcutTakes settled nodes improved through a former island
	// (§4.6.3).
	EscapeFallbacks, IslandsResolved, ShortcutTakes *Counter
	// BlockedEncounters counts blocked complete-CDG edges skipped during
	// relaxation; CycleSearches and EdgesBlocked aggregate the CDG cycle
	// detector; EdgeUses counts TryUseEdge attempts.
	BlockedEncounters, CycleSearches, EdgesBlocked, EdgeUses *Counter
	// Events receives one "engine_layer" event per routed layer with its
	// size and phase timings.
	Events *Ring
}

// Engine returns the engine bundle registered under engine_* names (nil,
// all-no-op, on a nil registry).
func (r *Registry) Engine() *EngineMetrics {
	if r == nil {
		return nil
	}
	return &EngineMetrics{
		Routes:                r.Counter("engine_routes_total"),
		Layers:                r.Counter("engine_layers_routed_total"),
		PartitionNanos:        r.Counter("engine_partition_nanos_total"),
		BetweennessNanos:      r.Counter("engine_betweenness_nanos_total"),
		DijkstraNanos:         r.Counter("engine_dijkstra_nanos_total"),
		LayerBetweennessNanos: r.Histogram("engine_layer_betweenness_nanos"),
		LayerDijkstraNanos:    r.Histogram("engine_layer_dijkstra_nanos"),
		DijkstraRuns:          r.Counter("engine_dijkstra_runs_total"),
		EscapeFallbacks:       r.Counter("engine_escape_fallbacks_total"),
		IslandsResolved:       r.Counter("engine_islands_resolved_total"),
		ShortcutTakes:         r.Counter("engine_shortcut_takes_total"),
		BlockedEncounters:     r.Counter("engine_blocked_encounters_total"),
		CycleSearches:         r.Counter("engine_cycle_searches_total"),
		EdgesBlocked:          r.Counter("engine_edges_blocked_total"),
		EdgeUses:              r.Counter("engine_edge_uses_total"),
		Events:                r.Ring(),
	}
}

// FabricMetrics instruments the online fabric manager (internal/fabric).
type FabricMetrics struct {
	// EventsApplied counts Apply calls that published a new epoch; NoOps
	// those that changed nothing; Errors failed reconfigurations.
	EventsApplied, NoOps, Errors *Counter
	// RepairedDests and UnreachableDests aggregate per-event repair
	// outcomes; RepairScope is the distribution of repaired destinations
	// per event (the issue's "repair scope histogram").
	RepairedDests, UnreachableDests *Counter
	RepairScope                     *Histogram
	// LayerRebuilds and FullRecomputes count the incremental→layer→full
	// repair widenings.
	LayerRebuilds, FullRecomputes *Counter
	// SeededChannels and SeededDeps count old-configuration dependencies
	// carried into repair CDGs.
	SeededChannels, SeededDeps *Counter
	// EntriesChanged/Added/Removed aggregate table deltas across epochs.
	EntriesChanged, EntriesAdded, EntriesRemoved *Counter
	// PublishNanos is the epoch publish latency distribution (repair +
	// verification + snapshot installation).
	PublishNanos *Histogram
	// RepairNanos is the wall time of the layer-job barrier per event,
	// CertifyNanos that of verifier + post-check (which overlap, so it
	// is less than their sum): the two stages of PublishNanos timed
	// where they run.
	RepairNanos, CertifyNanos *Histogram
	// Epoch mirrors the currently published epoch.
	Epoch *Gauge
	// Events receives one "fabric_event" entry per applied event.
	Events *Ring
}

// Fabric returns the fabric bundle registered under fabric_* names (nil,
// all-no-op, on a nil registry).
func (r *Registry) Fabric() *FabricMetrics {
	if r == nil {
		return nil
	}
	return &FabricMetrics{
		EventsApplied:    r.Counter("fabric_events_applied_total"),
		NoOps:            r.Counter("fabric_events_noop_total"),
		Errors:           r.Counter("fabric_events_failed_total"),
		RepairedDests:    r.Counter("fabric_repaired_dests_total"),
		UnreachableDests: r.Counter("fabric_unreachable_dests_total"),
		RepairScope:      r.Histogram("fabric_repair_scope_dests"),
		LayerRebuilds:    r.Counter("fabric_layer_rebuilds_total"),
		FullRecomputes:   r.Counter("fabric_full_recomputes_total"),
		SeededChannels:   r.Counter("fabric_seeded_channels_total"),
		SeededDeps:       r.Counter("fabric_seeded_deps_total"),
		EntriesChanged:   r.Counter("fabric_table_entries_changed_total"),
		EntriesAdded:     r.Counter("fabric_table_entries_added_total"),
		EntriesRemoved:   r.Counter("fabric_table_entries_removed_total"),
		PublishNanos:     r.Histogram("fabric_epoch_publish_nanos"),
		RepairNanos:      r.Histogram("fabric_repair_nanos"),
		CertifyNanos:     r.Histogram("fabric_certify_nanos"),
		Epoch:            r.Gauge("fabric_epoch"),
		Events:           r.Ring(),
	}
}

// DistribMetrics instruments the forwarding-plane distribution source
// (internal/distrib): the comms, robustness and install-ordering layer
// between the fabric manager and the switch-agent fleet.
type DistribMetrics struct {
	// EpochsPublished counts epochs handed to the source; RoundsStarted
	// distribution rounds begun; EpochsCommitted rounds that reached the
	// fleet-wide commit barrier.
	EpochsPublished, RoundsStarted, EpochsCommitted *Counter
	// TransitionsCertified counts rounds whose union state the oracle
	// certified; DrainFallbacks rounds that had to drain the fleet
	// because the union was refuted (or no certifier was wired).
	TransitionsCertified, DrainFallbacks *Counter
	// FramesSent and BytesSent aggregate the wire traffic pushed to
	// agents; EpochBytes is the per-agent bytes-per-epoch distribution.
	FramesSent, BytesSent *Counter
	EpochBytes            *Histogram
	// DeltaPermille is the per-push ratio of delta-encoded bytes to the
	// full-snapshot size of the same tables, in permille (1000 = no
	// saving); FullSyncs counts pushes that fell back to a full
	// snapshot (new agent, stale base, or a NAK re-sync).
	DeltaPermille *Histogram
	FullSyncs     *Counter
	// PrepareNanos is the per-agent prepare round-trip latency (the
	// fanout latency histogram); BarrierNanos the whole-fleet
	// prepare-barrier latency; CommitNanos the commit-phase latency.
	PrepareNanos, BarrierNanos, CommitNanos *Histogram
	// Retries counts per-agent resend attempts; Naks checksum or
	// base-mismatch rejections received from agents.
	Retries, Naks *Counter
	// AgentsConnected tracks the live fleet size; Quarantined the
	// stragglers currently excluded from the ack barrier.
	AgentsConnected, Quarantined *Gauge
	// FleetEpoch mirrors the last fleet-committed epoch.
	FleetEpoch *Gauge
	// Events receives one "distrib_round" entry per distribution round.
	Events *Ring
}

// Distrib returns the distribution bundle registered under distrib_*
// names (nil, all-no-op, on a nil registry).
func (r *Registry) Distrib() *DistribMetrics {
	if r == nil {
		return nil
	}
	return &DistribMetrics{
		EpochsPublished:      r.Counter("distrib_epochs_published_total"),
		RoundsStarted:        r.Counter("distrib_rounds_started_total"),
		EpochsCommitted:      r.Counter("distrib_epochs_committed_total"),
		TransitionsCertified: r.Counter("distrib_transitions_certified_total"),
		DrainFallbacks:       r.Counter("distrib_drain_fallbacks_total"),
		FramesSent:           r.Counter("distrib_frames_sent_total"),
		BytesSent:            r.Counter("distrib_bytes_sent_total"),
		EpochBytes:           r.Histogram("distrib_epoch_bytes"),
		DeltaPermille:        r.Histogram("distrib_delta_permille"),
		FullSyncs:            r.Counter("distrib_full_syncs_total"),
		PrepareNanos:         r.Histogram("distrib_prepare_nanos"),
		BarrierNanos:         r.Histogram("distrib_barrier_nanos"),
		CommitNanos:          r.Histogram("distrib_commit_nanos"),
		Retries:              r.Counter("distrib_retries_total"),
		Naks:                 r.Counter("distrib_naks_total"),
		AgentsConnected:      r.Gauge("distrib_agents_connected"),
		Quarantined:          r.Gauge("distrib_agents_quarantined"),
		FleetEpoch:           r.Gauge("distrib_fleet_epoch"),
		Events:               r.Ring(),
	}
}

// McastMetrics instruments the multicast subsystem (internal/mcast):
// cast-tree construction inside the complete CDG and the UBM fallback.
type McastMetrics struct {
	// Builds counts tree-construction passes; GroupsRouted the groups
	// routed across them (a rebuild counts its groups again).
	Builds, GroupsRouted *Counter
	// TreeEdges counts committed cast out-channels (branches plus
	// ejections); TDeps and VDeps the committed tree and
	// branch-contention dependencies.
	TreeEdges, TDeps, VDeps *Counter
	// DepsBlocked counts dependency admissions the union cycle check
	// refused; Retries member attachment attempts restarted after a
	// blocked dependency.
	DepsBlocked, Retries *Counter
	// UBMMembers counts members served by serialized unicast legs;
	// UnroutedMembers members unreachable by any path.
	UBMMembers, UnroutedMembers *Counter
	// BuildNanos is the per-build wall-time distribution.
	BuildNanos *Histogram
	// Events receives one "mcast_build" entry per construction pass.
	Events *Ring
}

// Mcast returns the multicast bundle registered under mcast_* names
// (nil, all-no-op, on a nil registry).
func (r *Registry) Mcast() *McastMetrics {
	if r == nil {
		return nil
	}
	return &McastMetrics{
		Builds:          r.Counter("mcast_builds_total"),
		GroupsRouted:    r.Counter("mcast_groups_routed_total"),
		TreeEdges:       r.Counter("mcast_tree_edges_total"),
		TDeps:           r.Counter("mcast_tdeps_total"),
		VDeps:           r.Counter("mcast_vdeps_total"),
		DepsBlocked:     r.Counter("mcast_deps_blocked_total"),
		Retries:         r.Counter("mcast_attach_retries_total"),
		UBMMembers:      r.Counter("mcast_ubm_members_total"),
		UnroutedMembers: r.Counter("mcast_unrouted_members_total"),
		BuildNanos:      r.Histogram("mcast_build_nanos"),
		Events:          r.Ring(),
	}
}

// MaxTrackedVCs bounds the per-VC gauge vector of the simulator bundle;
// virtual lanes beyond it fold into the last gauge.
const MaxTrackedVCs = 16

// SimMetrics instruments the flit-level simulator (internal/sim).
type SimMetrics struct {
	// Runs counts simulation runs; Deadlocks runs that wedged; Timeouts
	// runs that exceeded MaxCycles.
	Runs, Deadlocks, Timeouts *Counter
	// FlitsInjected counts payload flits whose packet entered the
	// network (first transmission on the injection channel);
	// FlitsDelivered flits that reached their destination terminal;
	// FlitsInFlight is the stranded in-network flit count measured by
	// the final sweep of the last run (injected == delivered + in-flight
	// is the invariant the consistency tests pin).
	FlitsInjected, FlitsDelivered *Counter
	FlitsInFlight                 *Gauge
	// FlitsReplicated counts the extra flit copies created at cast-tree
	// branch switches (a k-way replication of an f-flit packet adds
	// (k-1)*f); the multicast conservation invariant is injected +
	// replicated == delivered + in-flight.
	FlitsReplicated *Counter
	// MessagesDelivered counts fully delivered messages.
	MessagesDelivered *Counter
	// StallCycles accumulates cycles in-network packets spent waiting
	// for an output channel or downstream credit; CreditStalls counts
	// transmission attempts refused for lack of buffer credit.
	StallCycles, CreditStalls *Counter
	// DeadlockSweeps counts deadlock-detector sweeps (the detector runs
	// whenever the event queue drains with traffic outstanding); sweeps
	// that confirm a wedged network increment Deadlocks.
	DeadlockSweeps *Counter
	// QueueHWM[vl] is the high-water mark of any single (channel, VL)
	// input-buffer queue depth (in packets) observed on virtual lane vl.
	QueueHWM [MaxTrackedVCs]*Gauge
	// Events receives "sim_run" and "sim_deadlock" entries.
	Events *Ring
}

// Sim returns the simulator bundle registered under sim_* names (nil,
// all-no-op, on a nil registry).
func (r *Registry) Sim() *SimMetrics {
	if r == nil {
		return nil
	}
	m := &SimMetrics{
		Runs:              r.Counter("sim_runs_total"),
		Deadlocks:         r.Counter("sim_deadlock_detected"),
		Timeouts:          r.Counter("sim_timeouts_total"),
		FlitsInjected:     r.Counter("sim_flits_injected_total"),
		FlitsDelivered:    r.Counter("sim_flits_delivered_total"),
		FlitsReplicated:   r.Counter("sim_flits_replicated_total"),
		FlitsInFlight:     r.Gauge("sim_flits_in_flight"),
		MessagesDelivered: r.Counter("sim_messages_delivered_total"),
		StallCycles:       r.Counter("sim_stall_cycles_total"),
		CreditStalls:      r.Counter("sim_credit_stalls_total"),
		DeadlockSweeps:    r.Counter("sim_deadlock_sweeps_total"),
		Events:            r.Ring(),
	}
	for vl := 0; vl < MaxTrackedVCs; vl++ {
		m.QueueHWM[vl] = r.Gauge("sim_vc_queue_depth_hwm_vc" + strconv.Itoa(vl))
	}
	return m
}

// QueueHWMFor returns the queue high-water gauge of virtual lane vl,
// folding out-of-range lanes into the last tracked gauge. Nil-safe.
func (m *SimMetrics) QueueHWMFor(vl int) *Gauge {
	if m == nil {
		return nil
	}
	if vl < 0 {
		vl = 0
	}
	if vl >= MaxTrackedVCs {
		vl = MaxTrackedVCs - 1
	}
	return m.QueueHWM[vl]
}

// WorkloadMetrics instruments the trace-driven workload layer
// (internal/workload generators and traces, the internal/flowsim fluid
// simulator, and cmd/nueload).
type WorkloadMetrics struct {
	// Runs counts fluid-simulation runs; Timeouts runs cut by MaxTicks.
	Runs, Timeouts *Counter
	// FlowsGenerated counts flows emitted by workload generators;
	// FlowsFinished flows the fluid simulator completed; FlowsSkipped
	// flows dropped before simulation (self-loops, disconnected
	// endpoints).
	FlowsGenerated, FlowsFinished, FlowsSkipped *Counter
	// FlowsActive is the high-water mark of concurrently active flows
	// across recomputes.
	FlowsActive *Gauge
	// EventsProcessed counts arrivals + finishes; RateRecomputes the
	// progressive-filling max-min recomputations (event rate =
	// EventsProcessed / RunNanos).
	EventsProcessed, RateRecomputes *Counter
	// RunNanos accumulates fluid-simulation wall time.
	RunNanos *Counter
	// TraceBytesWritten and TraceBytesRead aggregate binary-trace I/O.
	TraceBytesWritten, TraceBytesRead *Counter
	// Events receives one "flowsim_run" entry per run.
	Events *Ring
}

// Workload returns the workload bundle registered under workload_*
// names (nil, all-no-op, on a nil registry).
func (r *Registry) Workload() *WorkloadMetrics {
	if r == nil {
		return nil
	}
	return &WorkloadMetrics{
		Runs:              r.Counter("workload_runs_total"),
		Timeouts:          r.Counter("workload_timeouts_total"),
		FlowsGenerated:    r.Counter("workload_flows_generated_total"),
		FlowsFinished:     r.Counter("workload_flows_finished_total"),
		FlowsSkipped:      r.Counter("workload_flows_skipped_total"),
		FlowsActive:       r.Gauge("workload_flows_active_hwm"),
		EventsProcessed:   r.Counter("workload_events_processed_total"),
		RateRecomputes:    r.Counter("workload_rate_recomputes_total"),
		RunNanos:          r.Counter("workload_run_nanos_total"),
		TraceBytesWritten: r.Counter("workload_trace_bytes_written_total"),
		TraceBytesRead:    r.Counter("workload_trace_bytes_read_total"),
		Events:            r.Ring(),
	}
}

// ShardMetrics instruments the sharded, replicated control plane
// (internal/shard): region-local vs escalated repair scheduling,
// leadership churn and replicated-log outcomes.
type ShardMetrics struct {
	// LocalJobs counts layer repairs of committed epochs scheduled on
	// their home region's shard; SeamJobs those run by the coordinator
	// because their destinations span regions.
	LocalJobs, SeamJobs *Counter
	// EpochsCommitted counts epochs the replicated log accepted with a
	// quorum; Deposed counts appends/elections lost to a newer term.
	EpochsCommitted, Deposed *Counter
	// Elections counts leadership changes; Term and Leader mirror the
	// current term and leader replica (-1 when none).
	Elections    *Counter
	Term, Leader *Gauge
	// Events receives one "shard_epoch" entry per committed epoch.
	Events *Ring
}

// Shard returns the shard-control-plane bundle registered under shard_*
// names (nil, all-no-op, on a nil registry).
func (r *Registry) Shard() *ShardMetrics {
	if r == nil {
		return nil
	}
	return &ShardMetrics{
		LocalJobs:       r.Counter("shard_local_jobs_total"),
		SeamJobs:        r.Counter("shard_seam_jobs_total"),
		EpochsCommitted: r.Counter("shard_epochs_committed_total"),
		Deposed:         r.Counter("shard_deposed_total"),
		Elections:       r.Counter("shard_elections_total"),
		Term:            r.Gauge("shard_term"),
		Leader:          r.Gauge("shard_leader"),
		Events:          r.Ring(),
	}
}
