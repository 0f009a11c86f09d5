package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted, finite and
// carries its unit, that no op fails, and that the traced run writes a
// span file.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			c := &runConfig{seed: 7, trace: trace, size: smokeSize, setups: 1, outDir: t.TempDir()}
			r, err := runWorkload(w, c, readEnvironment(c))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < r.CountOps {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed: %v", w.Name, trace, r.Correct, r.Failed, r.Attempted, r.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
					t.Errorf("%s trace=%v: metric %s = %+v (emitted=%v), want a finite value in %s", w.Name, trace, d.Name, m, ok, d.Unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			if !trace {
				continue
			}
			if r.Metrics["telemetry.overhead_ratio"].Value <= 0 {
				t.Errorf("%s: no telemetry.overhead_ratio", w.Name)
			}
			data, err := os.ReadFile(filepath.Join(c.outDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Env   environment `json:"env"`
				Spans []span      `json:"spans"`
			}
			if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 || file.Env.GoVersion == "" {
				t.Errorf("%s: trace file: %d spans, env %+v, %v", w.Name, len(file.Spans), file.Env, err)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json against the tables the program
// prints from.
func TestBenchmarkJSON(t *testing.T) {
	type entry map[string]any
	want := map[string]any{
		"command":     []any{"bash", "bench/run.sh"},
		"paths":       []any{"bench"},
		"run_seconds": float64(runSeconds),
	}
	var ws, e2e, layers []any
	for _, w := range workloads {
		ws = append(ws, entry{"name": w.Name, "why": w.Why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, entry{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, entry{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	want["workloads"], want["end_to_end"], want["per_layer"] = ws, e2e, layers

	wantJSON, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var wantAny, gotAny any
	if err := json.Unmarshal(wantJSON, &wantAny); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &gotAny); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAny, wantAny) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; the tables give:\n%s", wantJSON)
	}
}

func TestPercentileRule(t *testing.T) {
	sample := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // descending: percentile must sort
		}
		return v
	}
	if _, ok := percentile(sample(199), 0.95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(sample(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v (ok=%v), want 190 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(sample(15), 0.5); ok {
		t.Error("p50 of 15 samples has 7 beyond it and must be refused as a percentile")
	}
	if v, ok := percentile(sample(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok=%v), want 990", v, ok)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 0, Parent: -1, StartNs: 0, EndNs: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"adjacent", []span{{StartNs: 10, EndNs: 30}, {StartNs: 30, EndNs: 50}}, 60},
		{"overlapping", []span{{StartNs: 10, EndNs: 40}, {StartNs: 30, EndNs: 60}}, 50},
		{"contained", []span{{StartNs: 10, EndNs: 60}, {StartNs: 20, EndNs: 30}}, 50},
		{"out of order", []span{{StartNs: 70, EndNs: 80}, {StartNs: 10, EndNs: 20}}, 80},
		{"clipped to the parent", []span{{StartNs: -20, EndNs: 10}, {StartNs: 90, EndNs: 150}}, 80},
		{"outside", []span{{StartNs: 100, EndNs: 200}}, 100},
	} {
		if got := selfNs(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}

	// Nested: a grandchild shortens its parent's self time, not its grandparent's.
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "apply", StartNs: 10, EndNs: 70},
		{ID: 2, Parent: 1, Name: "certify", StartNs: 20, EndNs: 50},
		{ID: 3, Parent: 0, Name: "fanout", StartNs: 70, EndNs: 95},
	}
	if got, want := selfTimes(spans), []int64{15, 30, 30, 25}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestPerOpValues(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "core.route", Op: -1, EndNs: 9e6}, // warm-up in set-up: ignored once timed ops exist
		{ID: 1, Name: "core.route", Op: 0, EndNs: 2e6},
		{ID: 2, Name: "core.route", Op: 1, EndNs: 3e6},
		{ID: 3, Name: "core.route", Op: 1, EndNs: 1e6}, // second call in op 1: summed
		{ID: 4, Name: "topology.build", Op: -1, EndNs: 5e6},
		{ID: 5, Name: "topology.build", Op: -2, EndNs: 7e6},
	}
	dur := durations(spans)
	if got, want := opValues(perOp(spans, dur, "core.route")), []float64{2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("core.route per op = %v, want %v", got, want)
	}
	if got, want := opValues(perOp(spans, dur, "topology.build")), []float64{7, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("topology.build per set-up = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"unchanged", tight, []float64{101, 100, 102, 99, 101}, "lower", "same"},
		{"slower beyond the bound", tight, []float64{120, 121, 119, 122, 120}, "lower", "worse"},
		{"slower within the bound", tight, []float64{105, 106, 104, 105, 107}, "lower", "same"},
		{"lower throughput", tight, []float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{"higher throughput", tight, []float64{120, 121, 119, 122, 120}, "higher", "same"},
		{"spread wider than the bound", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "lower", "unresolved"},
		{"wide spread but every run better", []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "lower", "same"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
	if got, want := quartileSpread([]float64{32, 1, 16, 2, 8, 4}), (20-1.75)/6; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread %v, want %v", got, want)
	}
}
