package flowsim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/workload"
)

// bfsTable builds a shortest-path destination-based table toward every
// terminal: a minimal correct routing result for analytic fixtures,
// independent of any engine.
func bfsTable(net *graph.Network) *routing.Result {
	dests := net.Terminals()
	t := routing.NewTable(net, dests)
	for _, d := range dests {
		// BFS from the destination over reversed channels; next[n] is
		// the first hop of a shortest n -> d path.
		next := make([]graph.ChannelID, net.NumNodes())
		for i := range next {
			next[i] = graph.NoChannel
		}
		queue := []graph.NodeID{d}
		seen := make([]bool, net.NumNodes())
		seen[d] = true
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, c := range net.In(n) {
				ch := net.Channel(c)
				if seen[ch.From] {
					continue
				}
				seen[ch.From] = true
				next[ch.From] = c
				queue = append(queue, ch.From)
			}
		}
		for _, sw := range net.Switches() {
			if next[sw] != graph.NoChannel {
				t.Set(sw, d, next[sw])
			}
		}
	}
	return &routing.Result{Algorithm: "bfs-test", Table: t}
}

// parkingLot builds the classic max-min fixture: three switches in a
// line, one long flow across both inter-switch links, one short flow on
// the first, two short flows on the second.
//
//	tA, tB - S0 --- S1 --- S2 - tA2, tC2, tD2
//	             tB2-+ +-tC, tD
func parkingLot(t *testing.T) (*graph.Network, *routing.Result, []workload.Flow) {
	t.Helper()
	b := graph.NewBuilder()
	s0, s1, s2 := b.AddSwitch("s0"), b.AddSwitch("s1"), b.AddSwitch("s2")
	tA, tB := b.AddTerminal("tA"), b.AddTerminal("tB")
	tB2, tC, tD := b.AddTerminal("tB2"), b.AddTerminal("tC"), b.AddTerminal("tD")
	tA2, tC2, tD2 := b.AddTerminal("tA2"), b.AddTerminal("tC2"), b.AddTerminal("tD2")
	b.AddLink(s0, s1)
	b.AddLink(s1, s2)
	for _, pair := range [][2]graph.NodeID{{tA, s0}, {tB, s0}, {tB2, s1}, {tC, s1}, {tD, s1}, {tA2, s2}, {tC2, s2}, {tD2, s2}} {
		b.AddLink(pair[0], pair[1])
	}
	net := b.MustBuild()
	flows := []workload.Flow{
		{Src: tA, Dst: tA2, Bytes: 900}, // S0->S1->S2
		{Src: tB, Dst: tB2, Bytes: 900}, // S0->S1
		{Src: tC, Dst: tC2, Bytes: 900}, // S1->S2
		{Src: tD, Dst: tD2, Bytes: 900}, // S1->S2
	}
	return net, bfsTable(net), flows
}

// TestSingleFlowFullRate: an uncontended flow runs at link capacity and
// finishes at Bytes/Capacity.
func TestSingleFlowFullRate(t *testing.T) {
	net, res, _ := parkingLot(t)
	terms := net.Terminals()
	flows := []workload.Flow{{Src: terms[0], Dst: terms[5], Bytes: 1000}}
	r, err := Run(net, res, flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowsFinished != 1 || r.Makespan != 1000 {
		t.Fatalf("finished=%d makespan=%v, want 1/1000", r.FlowsFinished, r.Makespan)
	}
	if r.AggThroughput != 1.0 {
		t.Fatalf("throughput %v, want 1.0", r.AggThroughput)
	}
}

// TestSharedLinkFairSplit: two flows across one shared link each get
// half the capacity.
func TestSharedLinkFairSplit(t *testing.T) {
	b := graph.NewBuilder()
	s0, s1 := b.AddSwitch("s0"), b.AddSwitch("s1")
	t0, t1 := b.AddTerminal("t0"), b.AddTerminal("t1")
	u0, u1 := b.AddTerminal("u0"), b.AddTerminal("u1")
	b.AddLink(s0, s1)
	b.AddLink(t0, s0)
	b.AddLink(t1, s0)
	b.AddLink(u0, s1)
	b.AddLink(u1, s1)
	net := b.MustBuild()
	res := bfsTable(net)
	flows := []workload.Flow{
		{Src: t0, Dst: u0, Bytes: 1000},
		{Src: t1, Dst: u1, Bytes: 1000},
	}
	r, err := Run(net, res, flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowsFinished != 2 {
		t.Fatalf("finished %d flows", r.FlowsFinished)
	}
	// Each runs at 1/2 across the shared s0->s1 link: both end at 2000.
	if r.Makespan != 2000 {
		t.Fatalf("makespan %v, want 2000", r.Makespan)
	}
}

// TestParkingLotMaxMin pins the progressive-filling allocation on the
// classic parking-lot fixture. Hand computation with capacity 1: link
// S1->S2 carries flows A, C, D (share 1/3, the first bottleneck); link
// S0->S1 then has 2/3 left for B alone. So B finishes at 900/(2/3) =
// 1350 and A, C, D at 900/(1/3) = 2700; B's finish frees no capacity
// for the others (their bottleneck is S1->S2 throughout).
func TestParkingLotMaxMin(t *testing.T) {
	net, res, flows := parkingLot(t)
	r, err := Run(net, res, flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowsFinished != 4 {
		t.Fatalf("finished %d of 4", r.FlowsFinished)
	}
	if math.Abs(r.Makespan-2700) > 1e-6 {
		t.Fatalf("makespan %v, want 2700", r.Makespan)
	}
	// Per-flow completion order shows up in the tenant FCT stats: all
	// flows are tenant 0, so FCTMax = 2700 and FCTP50 = 2700 (ranks
	// 1350, 2700, 2700, 2700).
	ts := r.PerTenant[0]
	if math.Abs(ts.FCTMax-2700) > 1e-6 || math.Abs(ts.FCTP50-2700) > 1e-6 {
		t.Fatalf("FCTMax=%v FCTP50=%v, want 2700/2700", ts.FCTMax, ts.FCTP50)
	}
	// Link byte totals are exact: S0->S1 carried A+B = 1800, S1->S2
	// carried A+C+D = 2700.
	l01 := net.FindChannel(0, 1)
	l12 := net.FindChannel(1, 2)
	if r.LinkBytes[l01] != 1800 || r.LinkBytes[l12] != 2700 {
		t.Fatalf("link bytes %v / %v, want 1800 / 2700", r.LinkBytes[l01], r.LinkBytes[l12])
	}
}

// TestPoissonArrivalsFinish: open-loop arrivals admit flows over time
// and every flow still completes.
func TestPoissonArrivalsFinish(t *testing.T) {
	tp := topology.Ring(8, 2)
	res := bfsTable(tp.Net)
	flows := workload.Generate(tp.Net.Terminals(), workload.Single(workload.Uniform{}, 4096), 400,
		workload.Poisson{MeanGap: 32}, 7)
	r, err := Run(tp.Net, res, flows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowsFinished != 400 {
		t.Fatalf("finished %d of 400 (skipped %d, unfinished %d)", r.FlowsFinished, r.FlowsSkipped, r.FlowsUnfinished)
	}
	if r.Makespan <= 0 || math.IsNaN(r.AggThroughput) {
		t.Fatalf("degenerate result: makespan=%v throughput=%v", r.Makespan, r.AggThroughput)
	}
}

// TestQuantumCoalescing: a coalesced run recomputes far less often than
// the exact one, still finishes every flow, and conserves delivered
// bytes exactly (per-link accounting is trajectory-independent).
func TestQuantumCoalescing(t *testing.T) {
	tp := topology.Ring(8, 2)
	res := bfsTable(tp.Net)
	flows := workload.Generate(tp.Net.Terminals(), workload.Single(workload.Shift{}, 1<<15), 800,
		workload.Poisson{MeanGap: 8}, 13)
	exact, err := Run(tp.Net, res, flows, Config{Quantum: 0})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := Run(tp.Net, res, flows, Config{Quantum: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Recomputes >= exact.Recomputes {
		t.Fatalf("coalescing did not reduce recomputes: %d vs %d", coarse.Recomputes, exact.Recomputes)
	}
	if exact.FlowsFinished != 800 || coarse.FlowsFinished != 800 {
		t.Fatalf("finished %d / %d of 800", exact.FlowsFinished, coarse.FlowsFinished)
	}
	if exact.DeliveredBytes != coarse.DeliveredBytes {
		t.Fatalf("delivered bytes differ: %d vs %d", exact.DeliveredBytes, coarse.DeliveredBytes)
	}
	// The coalesced makespan is an approximation but must stay within
	// one quantum-ish neighborhood of the exact fluid answer.
	if rel := math.Abs(coarse.Makespan-exact.Makespan) / exact.Makespan; rel > 0.15 {
		t.Fatalf("coalesced makespan %v drifted %.1f%% from exact %v", coarse.Makespan, 100*rel, exact.Makespan)
	}
}

// TestMisroutedTableFlagged: a forwarding loop in the table aborts the
// run with a typed WalkError naming the first broken flow — never a
// silent simulation of a broken route.
func TestMisroutedTableFlagged(t *testing.T) {
	net, res, flows := parkingLot(t)
	// Point S1 back at S0 for flow A's destination: S0 -> S1 -> S0 loop.
	dstA := flows[0].Dst
	res.Table.Set(1, dstA, net.FindChannel(1, 0))
	_, err := Run(net, res, flows, Config{})
	var we *WalkError
	if !errors.As(err, &we) {
		t.Fatalf("got error %v, want *WalkError", err)
	}
	if we.FlowIndex != 0 || !errors.Is(err, routing.ErrRoutingLoop) {
		t.Fatalf("flagged flow %d (%v), want flow 0 forwarding loop", we.FlowIndex, err)
	}
}

// TestMissingRouteFlagged: an empty table row is a typed no-route error.
func TestMissingRouteFlagged(t *testing.T) {
	net, res, flows := parkingLot(t)
	res.Table.Set(1, flows[0].Dst, graph.NoChannel)
	_, err := Run(net, res, flows, Config{})
	if we := new(*WalkError); !errors.As(err, we) || !errors.Is(err, routing.ErrNoRoute) {
		t.Fatalf("got %v, want WalkError(no route)", err)
	}
}

// TestEmptyAndSkippedFlows: a run with no usable flows yields zeroed,
// NaN-free metrics; self-loop flows are skipped, not simulated.
func TestEmptyAndSkippedFlows(t *testing.T) {
	net, res, _ := parkingLot(t)
	r, err := Run(net, res, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 0 || r.AggThroughput != 0 || math.IsNaN(r.AvgLinkUtilization) {
		t.Fatalf("empty run produced %+v", r)
	}
	terms := net.Terminals()
	r, err = Run(net, res, []workload.Flow{{Src: terms[0], Dst: terms[0], Bytes: 10}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FlowsSkipped != 1 || r.FlowsFinished != 0 || r.DeliveredBytes != 0 {
		t.Fatalf("self-loop flow not skipped: %+v", r)
	}
}

// TestMaxTicksCut: a run cut by MaxTicks reports TimedOut, counts
// unfinished flows, and accounts their partial bytes without NaN.
func TestMaxTicksCut(t *testing.T) {
	net, res, flows := parkingLot(t)
	r, err := Run(net, res, flows, Config{MaxTicks: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut {
		t.Fatal("run not marked TimedOut")
	}
	// B (rate 2/3) has finished by t=1000? 900/(2/3) = 1350 > 1000: no
	// flow finishes before the cut.
	if r.FlowsFinished != 0 || r.FlowsUnfinished != 4 {
		t.Fatalf("finished=%d unfinished=%d, want 0/4", r.FlowsFinished, r.FlowsUnfinished)
	}
	// Delivered at the cut: A, C, D moved 1000/3 bytes each, B 2000/3 —
	// 5000/3 ≈ 1666 bytes in total (integer-truncated per flow).
	if r.DeliveredBytes < 1660 || r.DeliveredBytes > 1667 {
		t.Fatalf("delivered %d bytes at the cut, want ~1666", r.DeliveredBytes)
	}
	if math.IsNaN(r.AggThroughput) || math.IsNaN(r.AvgLinkUtilization) {
		t.Fatal("NaN in timed-out result")
	}
}

// TestBadFlowFlagged: a flow that is not a transfer on the network — an
// endpoint that is not one of its nodes, a negative size — is a typed
// FlowError naming the first such flow, in a batch that ends before the
// path arena is sized (walkSample) and in one that ends long after. It
// used to be an index-out-of-range panic.
func TestBadFlowFlagged(t *testing.T) {
	net, res, good := parkingLot(t)
	far := graph.NodeID(net.NumNodes())
	for _, c := range []struct {
		name string
		bad  workload.Flow
	}{
		{"src past the last node", workload.Flow{Src: 9999, Dst: 0, Bytes: 10}},
		{"dst is the node count", workload.Flow{Src: good[0].Src, Dst: far, Bytes: 10}},
		{"negative src", workload.Flow{Src: -1, Dst: good[0].Dst, Bytes: 10}},
		{"negative size", workload.Flow{Src: good[0].Src, Dst: good[0].Dst, Bytes: -4096}},
	} {
		for _, n := range []int{len(good), 6000} {
			flows := make([]workload.Flow, n)
			for i := range flows {
				flows[i] = good[i%len(good)]
			}
			// Two offenders: the lower index is the one reported.
			at := n / 3
			flows[at], flows[n-1] = c.bad, c.bad
			_, err := Run(net, res, flows, Config{})
			var fe *FlowError
			if !errors.As(err, &fe) {
				t.Fatalf("%s, %d flows: got %v, want *FlowError", c.name, n, err)
			}
			if fe.FlowIndex != at || fe.Flow != c.bad {
				t.Fatalf("%s, %d flows: flagged flow %d %+v, want flow %d", c.name, n, fe.FlowIndex, fe.Flow, at)
			}
		}
	}
}
