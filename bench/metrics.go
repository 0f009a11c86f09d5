package main

// The benchmark's metric and workload tables. BENCHMARK.json at the
// repository root mirrors them (bench_test.go fails when they differ);
// the program reads only these tables.

import "repro/internal/telemetry"

// metricDef declares one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a count that must repeat exactly for a seed: it is
	// taken over the first countOps ops of a run, which every run makes.
	Exact bool
}

// endToEnd lists what a user of the system sees. An op is the
// workload's unit of work (see workloads): topology in → certified
// tables and compiled LFTs out on cold-*, churn event in → last agent
// acknowledged on churn-* and failover-*, one fluid simulation of each
// traffic pattern on traffic-*.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
}

func lowerMs(names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: "ms", Better: "lower"}
	}
	return out
}

func lowerCount(names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: "count", Better: "lower", Exact: true}
	}
	return out
}

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// perLayer lists the metrics of single layers (packages under
// internal/), printed by the traced run. A metric a workload never
// exercises reads 0 there.
var perLayer = concat(
	[]metricDef{
		// The highest percentile the sample supports: 0 unless ten samples lie beyond it.
		{Name: "bench.op_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: "lower"},
	},
	lowerMs("topology.build_ms", "graph.clone_ms",
		"centrality.betweenness_ms", "centrality.betweenness_w1_ms",
		"partition.split_ms", "cdg.new_complete_ms"),
	lowerCount("cdg.cycle_searches", "cdg.edges_blocked"),
	lowerMs("core.route_ms", "core.route_w1_ms", "core.dijkstra_ms"),
	lowerCount("core.dijkstra_runs", "core.blocked_encounters", "core.escape_fallbacks"),
	[]metricDef{{Name: "core.allocs_per_route", Unit: "count", Better: "lower"}},
	lowerMs("routing.diff_ms", "routing.delta_encode_ms", "routing.delta_decode_ms"),
	lowerCount("routing.delta_bytes", "routing.entries_changed"),
	lowerMs("verify.check_ms", "oracle.certify_ms", "oracle.transition_ms", "oracle.seam_transition_ms"),
	lowerCount("oracle.deps", "oracle.pairs"),
	lowerMs("fabric.repair_ms"),
	lowerCount("fabric.repaired_dests", "fabric.layer_rebuilds", "fabric.full_recomputes"),
	[]metricDef{{Name: "fabric.roots_reused", Unit: "count", Better: "higher", Exact: true}},
	lowerMs("shard.apply_ms", "shard.append_ms", "shard.failover_ms", "shard.failed_apply_ms"),
	[]metricDef{{Name: "shard.local_job_ratio", Unit: "ratio", Better: "higher", Exact: true}},
	lowerCount("shard.seam_certified", "shard.seam_drains"),
	lowerMs("distrib.compile_ms", "distrib.fanout_ms", "distrib.prepare_ms", "distrib.barrier_ms", "distrib.commit_ms"),
	[]metricDef{
		{Name: "distrib.bytes_per_epoch", Unit: "B", Better: "lower", Exact: true},
		{Name: "distrib.delta_permille", Unit: "permille", Better: "lower", Exact: true},
	},
	lowerCount("distrib.full_syncs", "distrib.drain_fallbacks", "distrib.retries", "distrib.naks"),
	lowerMs("agent.initial_sync_ms"),
	[]metricDef{{Name: "agent.delta_installs", Unit: "count", Better: "higher", Exact: true}},
	lowerCount("agent.full_syncs", "agent.drains", "agent.naks", "agent.corrupt_frames"),
	lowerMs("workload.generate_ms",
		"flowsim.run_uniform_ms", "flowsim.run_hotspot_ms", "flowsim.run_incast_ms",
		"flowsim.walk_ms", "flowsim.run_w1_ms"),
	lowerCount("flowsim.events", "flowsim.recomputes"),
	[]metricDef{{Name: "flowsim.events_per_s", Unit: "1/s", Better: "higher"}},
)

// workloadDef declares one workload: its inputs at full and at smoke
// size and how many ops every run makes at least.
type workloadDef struct {
	Name string
	Why  string
	// countOps is the number of ops every run makes before the clock may
	// stop it: exact counts and the golden digest are taken over exactly
	// these, so they repeat for a seed however fast the host is.
	countOps int
	setup    func(c *runConfig, reg *telemetry.Registry, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	{
		Name:     "cold-torus512",
		Why:      "8x8x8 torus, all 512 terminals: engine, verifier, oracle and LFT compile do all the work, the control plane none",
		countOps: 3,
		setup: func(c *runConfig, reg *telemetry.Registry, tr *tracer) (instance, error) {
			return setupCold(c, reg, tr, c.size.torus, 0)
		},
	},
	{
		Name:     "cold-torus4k",
		Why:      "16x16x16 torus, 32-destination sample: 8x the switches, so CDG arenas, CSR and tables outgrow the caches; where worker scaling can show",
		countOps: 3,
		setup: func(c *runConfig, reg *telemetry.Registry, tr *tracer) (instance, error) {
			return setupCold(c, reg, tr, c.size.big, c.size.bigDests)
		},
	},
	{
		Name:     "churn-dfly36",
		Why:      "36-switch Dragonfly through the certified sharded plane to 4 agents: fixed per-epoch costs dominate, routing is cheap",
		countOps: 150,
		setup: func(c *runConfig, reg *telemetry.Registry, tr *tracer) (instance, error) {
			return setupChurn(c, reg, tr, churnSpec{dragonfly: true, warmups: 50})
		},
	},
	{
		Name:     "failover-dfly36",
		Why:      "same fabric, every op kills the leader first: failed apply, election, state restore and a cold-cache event",
		countOps: 20,
		setup: func(c *runConfig, reg *telemetry.Registry, tr *tracer) (instance, error) {
			return setupChurn(c, reg, tr, churnSpec{dragonfly: true, warmups: 10, failover: true})
		},
	},
	{
		Name:     "churn-torus512",
		Why:      "write-side twin of cold-torus512: repair and certification of a 512x512 table dominate, deltas are large enough to see on the wire",
		countOps: 3,
		setup: func(c *runConfig, reg *telemetry.Registry, tr *tracer) (instance, error) {
			return setupChurn(c, reg, tr, churnSpec{warmups: 1, switchEvery: 6})
		},
	},
	{
		Name:     "traffic-torus512",
		Why:      "read-side use of the same tables: the fluid simulator walks every flow's path and never routes or certifies",
		countOps: 2,
		setup:    setupTraffic,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
