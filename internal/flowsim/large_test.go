package flowsim_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/engines"
	"repro/internal/flowsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestMillionFlowTorus is the ISSUE 10 acceptance run: one million
// concurrent flows (a closed batch — every flow active from tick 0) on
// a 4,096-switch 16x16x16 torus, simulated by the fluid fast path in a
// single run with bounded memory and no flit-sim fallback.
//
// Gated behind NUE_WORKLOAD_1M=1 (the NUE_LARGE pattern): the run takes
// minutes of CPU. The equivalent CLI invocation is
//
//	nueload -topo torus -dims 16x16x16 -terminals 1 -engine torus2qos \
//	        -pattern uniform -flows 1000000 -bytes 4096 -mean-gap 0 -quantum 262144
func TestMillionFlowTorus(t *testing.T) {
	if os.Getenv("NUE_WORKLOAD_1M") == "" {
		t.Skip("set NUE_WORKLOAD_1M=1 to run the 1M-flow acceptance tier")
	}
	tp := topology.Torus3D(16, 16, 16, 1, 1)
	if tp.Net.NumSwitches() != 4096 {
		t.Fatalf("fixture has %d switches, want 4096", tp.Net.NumSwitches())
	}
	eng, err := engines.ByName("torus2qos", tp, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := eng.Route(tp.Net, tp.Net.Terminals(), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("routed 4096-switch torus in %s", time.Since(start).Round(time.Millisecond))

	const nFlows = 1_000_000
	flows := workload.Generate(tp.Net.Terminals(),
		workload.Single(workload.Uniform{}, 4096), nFlows, workload.Closed{}, 1)

	start = time.Now()
	r, err := flowsim.Run(tp.Net, res, flows, flowsim.Config{Quantum: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s, %d events, %d recomputes, makespan %.0f",
		time.Since(start).Round(time.Millisecond), r.Events, r.Recomputes, r.Makespan)
	if r.FlowsFinished != nFlows {
		t.Fatalf("finished %d of %d (skipped %d)", r.FlowsFinished, nFlows, r.FlowsSkipped)
	}
}
