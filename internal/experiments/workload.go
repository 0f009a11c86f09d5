package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/engines"
	"repro/internal/flowsim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// WorkloadConfig parameterizes the trace-driven workload experiment:
// adversarial traffic classes (hotspot, incast, permutation storms, a
// weighted multi-tenant mix) generated by internal/workload and pushed
// through the flow-level fluid simulator over real Nue tables. This is
// the evaluation regime ROADMAP open item 5 calls for — flow counts the
// flit model cannot reach, cross-validated against it on small cases
// (internal/flowsim's crossval suite).
type WorkloadConfig struct {
	// Flows is the number of flows per (topology, workload) cell.
	Flows int
	// MeanGap is the Poisson mean inter-arrival gap in ticks
	// (0 = closed batch, everything arrives at tick 0).
	MeanGap float64
	// MaxVCs is the routing VC budget.
	MaxVCs int
	Seed   int64
	// Workers bounds the routing goroutines (0 = GOMAXPROCS; results
	// are identical for every value).
	Workers int
	// Telemetry, when non-nil, instruments the runs under workload_*.
	Telemetry *telemetry.Registry
}

// DefaultWorkloadConfig runs laptop-sized cells: 20k flows per cell,
// open-loop arrivals, quantum-coalesced recomputation.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		Flows:   20_000,
		MeanGap: 4,
		MaxVCs:  4,
	}
}

// WorkloadRow is one (topology, workload, tenant) measurement. The
// "all" tenant row aggregates the whole cell; a multi-tenant cell adds
// one row per tenant.
type WorkloadRow struct {
	Topology string
	Workload string
	Tenant   string
	Flows    int
	Finished int
	// Makespan is the fluid completion time in ticks; Throughput the
	// delivered bytes per tick.
	Makespan   float64
	Throughput float64
	// FCTP50/FCTP99 are flow-completion-time percentiles in ticks.
	FCTP50, FCTP99 float64
	// AvgLinkUtil/MaxLinkUtil cover switch-to-switch links that carried
	// traffic.
	AvgLinkUtil, MaxLinkUtil float64
	Err                      string
}

const (
	// flowBytes is the per-flow transfer size of the single-pattern
	// workloads and of the mix's bulk tenant.
	flowBytes = 64 << 10
	// quantum coalesces flowsim rate recomputation.
	quantum = 1 << 16
)

// workloadCells returns the named workload mixes of the experiment.
func workloadCells() []workload.Mix {
	return []workload.Mix{
		workload.Single(workload.Uniform{}, flowBytes),
		workload.Single(workload.Hotspot{Skew: 1.2}, flowBytes),
		workload.Single(workload.Incast{Fanin: 8}, flowBytes),
		workload.Single(workload.Shift{}, flowBytes),
		{Tenants: []workload.TenantSpec{
			{Name: "bulk", Weight: 3, Pattern: workload.Uniform{}, Bytes: flowBytes},
			{Name: "rpc", Weight: 1, Pattern: workload.Incast{Fanin: 4}, Bytes: 4096},
		}},
	}
}

func mixName(m workload.Mix) string {
	if len(m.Tenants) == 1 {
		return m.Tenants[0].Name
	}
	return "mix(bulk+rpc)"
}

// Workload runs the experiment over the default topology set.
func Workload(cfg WorkloadConfig) []WorkloadRow {
	tops := []*topology.Topology{
		topology.Ring(8, 2),
		topology.Torus3D(4, 4, 2, 1, 1),
		topology.KAryNTree(4, 2, 4),
	}
	var rows []WorkloadRow
	for _, tp := range tops {
		for _, mix := range workloadCells() {
			rows = append(rows, workloadOne(tp, mix, cfg)...)
		}
	}
	return rows
}

// workloadOne routes one topology and simulates one workload cell on
// it, expanding multi-tenant cells into per-tenant rows.
func workloadOne(tp *topology.Topology, mix workload.Mix, cfg WorkloadConfig) []WorkloadRow {
	name := mixName(mix)
	row := WorkloadRow{Topology: tp.Name, Workload: name, Tenant: "all"}
	eng := engines.Nue(cfg.Seed, cfg.Workers)
	res, err := eng.Route(tp.Net, connectedTerminals(tp.Net), cfg.MaxVCs)
	if err != nil {
		row.Err = err.Error()
		return []WorkloadRow{row}
	}
	var arrival workload.Arrival = workload.Closed{}
	if cfg.MeanGap > 0 {
		arrival = workload.Poisson{MeanGap: cfg.MeanGap}
	}
	flows := workload.Generate(tp.Net.Terminals(), mix, cfg.Flows, arrival, cfg.Seed)
	var wm *telemetry.WorkloadMetrics
	if cfg.Telemetry != nil {
		wm = cfg.Telemetry.Workload()
		wm.FlowsGenerated.Add(int64(len(flows)))
	}
	r, err := flowsim.Run(tp.Net, res, flows, flowsim.Config{
		Quantum:     quantum,
		TenantNames: mix.TenantNames(),
		Telemetry:   wm,
	})
	if err != nil {
		row.Err = err.Error()
		return []WorkloadRow{row}
	}
	row.Flows = r.FlowsTotal
	row.Finished = r.FlowsFinished
	row.Makespan = r.Makespan
	row.Throughput = r.AggThroughput
	row.AvgLinkUtil = r.AvgLinkUtilization
	row.MaxLinkUtil = r.MaxLinkUtilization
	if len(r.PerTenant) == 1 {
		row.FCTP50 = r.PerTenant[0].FCTP50
		row.FCTP99 = r.PerTenant[0].FCTP99
		return []WorkloadRow{row}
	}
	rows := []WorkloadRow{row}
	for _, ts := range r.PerTenant {
		rows = append(rows, WorkloadRow{
			Topology: tp.Name, Workload: name, Tenant: ts.Name,
			Flows: ts.Flows, Finished: ts.Finished,
			Makespan: r.Makespan, Throughput: ts.Throughput,
			FCTP50: ts.FCTP50, FCTP99: ts.FCTP99,
			AvgLinkUtil: r.AvgLinkUtilization, MaxLinkUtil: r.MaxLinkUtilization,
		})
	}
	return rows
}

// WriteWorkload runs and prints the experiment.
func WriteWorkload(w io.Writer, cfg WorkloadConfig) []WorkloadRow {
	rows := Workload(cfg)
	fmt.Fprintf(w, "## Trace-driven workloads on Nue tables (fluid fast path) — %d flows/cell, mean gap %.1f, quantum %d\n",
		cfg.Flows, cfg.MeanGap, quantum)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tworkload\ttenant\tflows\tfinished\tmakespan(ticks)\tthroughput(B/tick)\tfct-p50\tfct-p99\tlink-util avg/max\tnote")
	for _, r := range rows {
		note := r.Err
		if note == "" {
			note = "ok"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.0f\t%.3f\t%.0f\t%.0f\t%.3f/%.3f\t%s\n",
			r.Topology, r.Workload, r.Tenant, r.Flows, r.Finished,
			r.Makespan, r.Throughput, r.FCTP50, r.FCTP99,
			r.AvgLinkUtil, r.MaxLinkUtil, note)
	}
	tw.Flush()
	return rows
}
