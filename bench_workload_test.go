package repro

// Workload-tier benchmarks (PR 10): the fluid fast path at the scale
// the flit simulator cannot reach.

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/flowsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkFlowsimSteady simulates a one-million-flow closed batch (all
// flows concurrently active from tick 0) on a 4,096-switch 16x16x16
// torus routed by Torus-2QoS: the ISSUE 10 steady-state regime.
// Routing and generation are setup; each op is one full fluid run
// (path walk, quantum-coalesced max-min recomputes, event loop) of
// 2,000,000 events.
func BenchmarkFlowsimSteady(b *testing.B) {
	tp := topology.Torus3D(16, 16, 16, 1, 1)
	eng, err := experiments.EngineByNameWorkers("torus2qos", tp, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Route(tp.Net, tp.Net.Terminals(), 4)
	if err != nil {
		b.Fatal(err)
	}
	const nFlows = 1_000_000
	flows := workload.Generate(tp.Net.Terminals(),
		workload.Single(workload.Uniform{}, 4096), nFlows, workload.Closed{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := flowsim.Run(tp.Net, res, flows, flowsim.Config{Quantum: 1 << 18})
		if err != nil {
			b.Fatal(err)
		}
		if r.FlowsFinished != nFlows {
			b.Fatalf("finished %d of %d", r.FlowsFinished, nFlows)
		}
	}
}
