package core

import (
	"math/rand"
	"testing"

	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// TestEngineTelemetryConsistency cross-checks the engine counters against
// independently recomputed ground truth: the modified Dijkstra runs once
// per routable destination, the per-layer run counts equal the partition
// sizes produced by internal/partition for the same seed, and the
// counters mirror the Result.Stats the engine has always reported.
func TestEngineTelemetryConsistency(t *testing.T) {
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	dests := tp.Net.Terminals()
	const seed, vcs = 1, 4

	reg := telemetry.New()
	opts := DefaultOptions()
	opts.Seed = seed
	opts.Telemetry = reg.Engine()
	res, err := New(opts).Route(tp.Net, dests, vcs)
	if err != nil {
		t.Fatal(err)
	}

	routable := 0
	for _, d := range dests {
		if tp.Net.Degree(d) > 0 {
			routable++
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["engine_dijkstra_runs_total"]; got != int64(routable) {
		t.Errorf("engine_dijkstra_runs_total = %d, want %d (one run per routable destination)", got, routable)
	}
	if got := s.Counters["engine_routes_total"]; got != 1 {
		t.Errorf("engine_routes_total = %d, want 1", got)
	}
	if got := s.Counters["engine_layers_routed_total"]; got != int64(res.VCs) {
		t.Errorf("engine_layers_routed_total = %d, want %d", got, res.VCs)
	}

	// Recompute the destination partition exactly as Route does (the
	// partition draw is the engine's first use of its seeded rng) and pin
	// the per-layer event payloads against it.
	rng := rand.New(rand.NewSource(seed))
	parts, err := partition.Split(tp.Net, dests, vcs, opts.Partition, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != res.VCs {
		t.Fatalf("partition recomputation yields %d layers, engine used %d", len(parts), res.VCs)
	}
	perLayer := make(map[int64]int64)
	for _, e := range s.Events {
		if e.Kind != "engine_layer" {
			continue
		}
		perLayer[e.Fields["layer"]] = e.Fields["dests"]
		if e.Fields["dijkstra_runs"] != e.Fields["dests"] {
			t.Errorf("layer %d: %d dijkstra runs for %d destinations",
				e.Fields["layer"], e.Fields["dijkstra_runs"], e.Fields["dests"])
		}
		if e.Fields["dijkstra_ns"] <= 0 {
			t.Errorf("layer %d: non-positive dijkstra_ns", e.Fields["layer"])
		}
	}
	if len(perLayer) != len(parts) {
		t.Fatalf("got %d engine_layer events, want %d", len(perLayer), len(parts))
	}
	for li, part := range parts {
		if got := perLayer[int64(li)]; got != int64(len(part)) {
			t.Errorf("layer %d routed %d destinations, partition assigned %d", li, got, len(part))
		}
	}

	// The counters must equal the Stats map the engine reports anyway.
	for counter, stat := range map[string]string{
		"engine_dijkstra_runs_total":      "dijkstra_runs",
		"engine_escape_fallbacks_total":   "escape_fallbacks",
		"engine_islands_resolved_total":   "islands_resolved",
		"engine_shortcut_takes_total":     "shortcut_takes",
		"engine_blocked_encounters_total": "blocked_skips",
		"engine_cycle_searches_total":     "cycle_searches",
		"engine_edges_blocked_total":      "blocked_edges",
		"engine_edge_uses_total":          "edge_uses",
	} {
		if got, want := s.Counters[counter], int64(res.Stats[stat]); got != want {
			t.Errorf("%s = %d, want %d (Result.Stats[%q])", counter, got, want, stat)
		}
	}

	// Phase timings must be present and self-consistent.
	if s.Counters["engine_partition_nanos_total"] <= 0 {
		t.Error("no partition time recorded")
	}
	dij := s.Histograms["engine_layer_dijkstra_nanos"]
	if dij.Count != int64(res.VCs) {
		t.Errorf("engine_layer_dijkstra_nanos count = %d, want %d", dij.Count, res.VCs)
	}
	if dij.Sum != s.Counters["engine_dijkstra_nanos_total"] {
		t.Errorf("histogram sum %d != counter %d", dij.Sum, s.Counters["engine_dijkstra_nanos_total"])
	}
}

// TestDeterministicWithTelemetry is the determinism regression the
// telemetry layer must not break: for every golden-hash topology, routing
// with telemetry enabled must produce bit-identical tables to routing
// without it, across worker counts 1, 2 and 8. Telemetry observes; it
// never participates.
func TestDeterministicWithTelemetry(t *testing.T) {
	for _, tc := range determinismCases {
		t.Run(tc.name, func(t *testing.T) {
			tp := tc.build()
			dests := tp.Net.Terminals()
			for _, workers := range []int{1, 2, 8} {
				for _, withTelemetry := range []bool{false, true} {
					opts := DefaultOptions()
					opts.Seed = tc.seed
					opts.Workers = workers
					if withTelemetry {
						opts.Telemetry = telemetry.New().Engine()
					}
					res, err := New(opts).Route(tp.Net, dests, tc.vcs)
					if err != nil {
						t.Fatalf("workers=%d telemetry=%v: %v", workers, withTelemetry, err)
					}
					if h := hashResult(tp.Net, res); tc.golden != 0 && h != tc.golden {
						t.Errorf("workers=%d telemetry=%v: hash %#016x, want golden %#016x",
							workers, withTelemetry, h, tc.golden)
					}
				}
			}
		})
	}
}
