package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestWorkloadSmallScale: every cell of a small workload experiment
// completes (routing applicable, all flows delivered), multi-tenant
// cells expand into per-tenant rows, and the workload_* telemetry
// observes the runs.
func TestWorkloadSmallScale(t *testing.T) {
	reg := telemetry.New()
	cfg := DefaultWorkloadConfig()
	cfg.Flows = 500
	cfg.Seed = 1
	cfg.Telemetry = reg
	rows := Workload(cfg)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	tenantRows := 0
	for _, r := range rows {
		if r.Err != "" {
			t.Errorf("%s/%s: %s", r.Topology, r.Workload, r.Err)
			continue
		}
		if r.Tenant == "all" && r.Finished != r.Flows {
			t.Errorf("%s/%s: finished %d of %d", r.Topology, r.Workload, r.Finished, r.Flows)
		}
		if r.Tenant != "all" {
			tenantRows++
		}
	}
	if tenantRows == 0 {
		t.Error("multi-tenant cell produced no per-tenant rows")
	}
	snap := reg.Snapshot()
	if snap.Counters["workload_runs_total"] == 0 || snap.Counters["workload_flows_finished_total"] == 0 {
		t.Errorf("workload telemetry not recorded: %v", snap.Counters)
	}
}

// TestWorkloadDeterministic: the experiment is a pure function of its
// config — same seed, same rows, regardless of the routing engine's
// worker count.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.Flows = 300
	cfg.Seed = 7
	cfg.Workers = 1
	a := Workload(cfg)
	cfg.Workers = 4
	b := Workload(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("workload experiment differs across worker counts")
	}
}

// TestWriteWorkloadProducesTable: the writer emits the table header and
// one line per row.
func TestWriteWorkloadProducesTable(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.Flows = 200
	var buf bytes.Buffer
	rows := WriteWorkload(&buf, cfg)
	out := buf.String()
	if !strings.Contains(out, "topology\t") && !strings.Contains(out, "topology ") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{"uniform", "hotspot", "incast", "shift", "mix(bulk+rpc)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing workload %q in output", want)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no rows returned")
	}
}
