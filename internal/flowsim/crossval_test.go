package flowsim_test

// Cross-validation of the fluid fast path (internal/flowsim) against
// the flit-level simulator (internal/sim): the contract that lets the
// workload experiments trust fluid numbers at scales the flit model
// cannot reach. On shared small topologies, routed by the real Nue
// engine:
//
//  1. per-flow paths are the production walker's (routing.Walk; its own
//     tests and the oracle differential cover it);
//  2. per-link load profiles are proportional — a fully delivered
//     closed batch moves MessageFlits flits per flow across exactly the
//     channels the fluid model credits with Bytes, so rank order is
//     preserved exactly;
//  3. relative throughput ordering of workloads agrees (the fluid model
//     ranks a bisection-heavy shift below a neighbor shift exactly when
//     the flit model does);
//  4. a deliberately mis-routed table is flagged by both models, never
//     silently simulated.

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/flowsim"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

const xvalFlits = 16 // MessageFlits in the flit model = Bytes per flow in the fluid model

func xvalTopologies(t *testing.T) []*topology.Topology {
	t.Helper()
	return []*topology.Topology{
		topology.Ring(8, 2),
		topology.Torus3D(3, 3, 1, 2, 1),
		topology.KAryNTree(2, 2, 2),
	}
}

func routeNue(t *testing.T, net *graph.Network) *routing.Result {
	t.Helper()
	res, err := core.New(core.DefaultOptions()).Route(net, net.Terminals(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// shiftFlows builds a closed shift(offset) batch: rounds full
// permutation rounds, every flow xvalFlits bytes at tick 0.
func shiftFlows(net *graph.Network, offset, rounds int) ([]workload.Flow, []sim.Message) {
	terms := net.Terminals()
	var flows []workload.Flow
	var msgs []sim.Message
	for r := 0; r < rounds; r++ {
		for i, src := range terms {
			dst := terms[(i+offset)%len(terms)]
			flows = append(flows, workload.Flow{Src: src, Dst: dst, Bytes: xvalFlits})
			msgs = append(msgs, sim.Message{Src: src, Dst: dst})
		}
	}
	return flows, msgs
}

func runBoth(t *testing.T, net *graph.Network, res *routing.Result, flows []workload.Flow, msgs []sim.Message) (flowsim.Result, sim.Result) {
	t.Helper()
	fr, err := flowsim.Run(net, res, flows, flowsim.Config{})
	if err != nil {
		t.Fatalf("flowsim: %v", err)
	}
	sr, err := sim.Run(net, res, msgs, sim.Config{
		PacketFlits: 8, MessageFlits: xvalFlits, BufferPackets: 2, MaxCycles: 2_000_000,
	})
	if err != nil {
		t.Fatalf("flit sim: %v", err)
	}
	if sr.Deadlocked || sr.TimedOut {
		t.Fatalf("flit sim stalled on a certified routing: %+v", sr)
	}
	if fr.FlowsFinished != len(flows) || sr.DeliveredMessages != len(msgs) {
		t.Fatalf("incomplete delivery: fluid %d/%d, flit %d/%d",
			fr.FlowsFinished, len(flows), sr.DeliveredMessages, len(msgs))
	}
	return fr, sr
}

// TestCrossValidationLinkProfile: after a fully delivered closed batch,
// the flit model's per-link busy cycles are exactly proportional to the
// fluid model's per-link bytes (one busy cycle per flit, xvalFlits
// flits per xvalFlits-byte flow), so the per-link utilization rank
// order is preserved exactly on every channel.
func TestCrossValidationLinkProfile(t *testing.T) {
	for _, tp := range xvalTopologies(t) {
		res := routeNue(t, tp.Net)
		flows, msgs := shiftFlows(tp.Net, len(tp.Net.Terminals())/2, 2)
		fr, sr := runBoth(t, tp.Net, res, flows, msgs)
		if len(sr.LinkBusy) != len(fr.LinkBytes) {
			t.Fatalf("%s: profile lengths differ: %d vs %d", tp.Name, len(sr.LinkBusy), len(fr.LinkBytes))
		}
		for c := range sr.LinkBusy {
			if sr.LinkBusy[c] != int64(fr.LinkBytes[c]) {
				t.Fatalf("%s: channel %d: flit busy %d cycles, fluid %v bytes (want equal at 1 byte/flit)",
					tp.Name, c, sr.LinkBusy[c], fr.LinkBytes[c])
			}
		}
	}
}

// TestCrossValidationThroughputOrdering: both models rank the
// bisection-crossing shift(T/2) batch below the neighbor shift(1)
// batch, by a clear margin.
func TestCrossValidationThroughputOrdering(t *testing.T) {
	for _, tp := range xvalTopologies(t) {
		res := routeNue(t, tp.Net)
		nearFlows, nearMsgs := shiftFlows(tp.Net, 1, 2)
		farFlows, farMsgs := shiftFlows(tp.Net, len(tp.Net.Terminals())/2, 2)
		frNear, srNear := runBoth(t, tp.Net, res, nearFlows, nearMsgs)
		frFar, srFar := runBoth(t, tp.Net, res, farFlows, farMsgs)
		// The fluid model measures bytes/tick, the flit model
		// flits/cycle; with 1-byte flits they are the same unit.
		if frNear.AggThroughput <= frFar.AggThroughput {
			t.Fatalf("%s: fluid model ranks shift(T/2) (%v) >= shift(1) (%v)",
				tp.Name, frFar.AggThroughput, frNear.AggThroughput)
		}
		if srNear.FlitsPerCycle <= srFar.FlitsPerCycle {
			t.Fatalf("%s: flit model ranks shift(T/2) (%v) >= shift(1) (%v)",
				tp.Name, srFar.FlitsPerCycle, srNear.FlitsPerCycle)
		}
		// Makespan ordering must agree too (the fluid clock is not the
		// flit clock, but the ordering is the contract).
		if (frNear.Makespan < frFar.Makespan) != (srNear.Cycles < srFar.Cycles) {
			t.Fatalf("%s: makespan orderings disagree: fluid %v/%v, flit %d/%d",
				tp.Name, frNear.Makespan, frFar.Makespan, srNear.Cycles, srFar.Cycles)
		}
	}
}

// TestCrossValidationMisroutedFlagged: a deliberately corrupted table —
// a two-switch forwarding loop toward one destination — must be flagged
// by both models: the fluid walker refuses to simulate it (typed
// WalkError) and the flit simulator reports the non-delivery rather
// than inventing throughput.
func TestCrossValidationMisroutedFlagged(t *testing.T) {
	for _, tp := range xvalTopologies(t) {
		res := routeNue(t, tp.Net)
		terms := tp.Net.Terminals()
		victim := terms[len(terms)-1]
		// Walk the victim's path from terms[0] and point the second
		// switch back at the first: src -> s0 -> s1 -> s0 -> s1 ...
		path, err := routing.Walk(tp.Net, res, terms[0], victim, nil)
		if err != nil || len(path) < 3 {
			t.Fatalf("%s: fixture path: %v (len %d)", tp.Name, err, len(path))
		}
		s0 := tp.Net.Channel(path[1]).From
		s1 := tp.Net.Channel(path[1]).To
		back := tp.Net.FindChannel(s1, s0)
		if back == graph.NoChannel {
			t.Fatalf("%s: no back-channel %d->%d", tp.Name, s1, s0)
		}
		// PairPath overrides would mask the table corruption for pairs
		// that carry one; drop them so both models walk the table.
		res.PairPath = nil
		res.Table.Set(s1, victim, back)

		flows := []workload.Flow{{Src: terms[0], Dst: victim, Bytes: xvalFlits}}
		_, err = flowsim.Run(tp.Net, res, flows, flowsim.Config{})
		if we := new(*flowsim.WalkError); !errors.As(err, we) || !errors.Is(err, routing.ErrRoutingLoop) {
			t.Fatalf("%s: fluid model did not flag the loop: %v", tp.Name, err)
		}

		msgs := []sim.Message{{Src: terms[0], Dst: victim}}
		sr, err := sim.Run(tp.Net, res, msgs, sim.Config{
			PacketFlits: 8, MessageFlits: xvalFlits, BufferPackets: 2, MaxCycles: 50_000,
		})
		if err != nil {
			t.Fatalf("%s: flit sim error: %v", tp.Name, err)
		}
		if !sr.Deadlocked && !sr.TimedOut && sr.DeliveredMessages == len(msgs) {
			t.Fatalf("%s: flit model delivered over a looping table: %+v", tp.Name, sr)
		}
	}
}

// TestCrossValidationUtilizationTolerance: the summary utilizations of
// the two models land within a loose tolerance once normalized — the
// fluid model has no pipeline bubbles, so it upper-bounds the flit
// model's utilization but must stay within the same regime (factor 3).
func TestCrossValidationUtilizationTolerance(t *testing.T) {
	for _, tp := range xvalTopologies(t) {
		res := routeNue(t, tp.Net)
		flows, msgs := shiftFlows(tp.Net, len(tp.Net.Terminals())/2, 2)
		fr, sr := runBoth(t, tp.Net, res, flows, msgs)
		if fr.MaxLinkUtilization <= 0 || sr.MaxLinkUtilization <= 0 {
			t.Fatalf("%s: degenerate utilizations: fluid %v, flit %v",
				tp.Name, fr.MaxLinkUtilization, sr.MaxLinkUtilization)
		}
		// Compare the shape, not the absolute level: avg/max is scale-free.
		fShape := fr.AvgLinkUtilization / fr.MaxLinkUtilization
		sShape := sr.AvgLinkUtilization / sr.MaxLinkUtilization
		if ratio := fShape / sShape; math.Abs(math.Log(ratio)) > math.Log(3) {
			t.Fatalf("%s: utilization shapes diverge: fluid %v, flit %v (ratio %v)",
				tp.Name, fShape, sShape, ratio)
		}
	}
}
