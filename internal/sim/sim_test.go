package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle/exists"
	"repro/internal/routing"
	"repro/internal/topology"
)

// lineFixture: 3 switches in a row, one terminal each, tree routing.
func lineFixture(t *testing.T) (*graph.Network, *routing.Result) {
	t.Helper()
	b := graph.NewBuilder()
	s := []graph.NodeID{b.AddSwitch(""), b.AddSwitch(""), b.AddSwitch("")}
	b.AddLink(s[0], s[1])
	b.AddLink(s[1], s[2])
	var terms []graph.NodeID
	for _, sw := range s {
		tm := b.AddTerminal("")
		b.AddLink(tm, sw)
		terms = append(terms, tm)
	}
	g := b.MustBuild()
	res, err := core.New(core.DefaultOptions()).Route(g, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestSingleMessageLatency(t *testing.T) {
	g, res := lineFixture(t)
	terms := g.Terminals()
	cfg := Config{PacketFlits: 8, MessageFlits: 16, BufferPackets: 2}
	r, err := Run(g, res, []Message{{Src: terms[0], Dst: terms[2]}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.TimedOut {
		t.Fatalf("unexpected stall: %+v", r)
	}
	if r.DeliveredFlits != 16 || r.DeliveredMessages != 1 {
		t.Errorf("delivered %d flits / %d msgs, want 16 / 1", r.DeliveredFlits, r.DeliveredMessages)
	}
	// Path t0->s0->s1->s2->t2 = 4 channels; store-and-forward per 8-flit
	// packet with the second packet pipelined: 4*8 + 8 = 40 cycles.
	if r.Cycles != 40 {
		t.Errorf("makespan = %d cycles, want 40", r.Cycles)
	}
}

func TestAllMessagesDeliveredOnDeadlockFreeRouting(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	g := tp.Net
	res, err := core.New(core.DefaultOptions()).Route(g, g.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := AllToAllShift(g.Terminals(), 0)
	r, err := Run(g, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatal("deadlock on verified deadlock-free routing")
	}
	want := len(g.Terminals()) * (len(g.Terminals()) - 1)
	if r.DeliveredMessages != want {
		t.Errorf("delivered %d messages, want %d", r.DeliveredMessages, want)
	}
	if r.FlitsPerCycle <= 0 {
		t.Error("throughput not positive")
	}
}

// TestSourceRoutesDeliver drives the source-route branch: the existence
// witness routes every pair along an explicit path over an empty table,
// so every message follows a PairPath override, and a deadlock-free set
// of them must deliver everything.
func TestSourceRoutesDeliver(t *testing.T) {
	tp := topology.Torus3D(5, 5, 1, 2, 1)
	g := tp.Net
	res, err := exists.Engine{}.Route(g, g.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Terminals()); len(res.PairPath) != n*(n-1) {
		t.Fatalf("%d overrides for %d terminals: the fixture no longer source-routes every pair", len(res.PairPath), n)
	}
	msgs := AllToAllShift(g.Terminals(), 8)
	r, err := Run(g, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.DeliveredMessages != r.TotalMessages || r.TotalMessages != len(msgs) {
		t.Fatalf("delivered %d of %d messages (%d sent), deadlocked %v", r.DeliveredMessages, r.TotalMessages, len(msgs), r.Deadlocked)
	}
}

// clockwiseRingResult reproduces the canonical deadlocking routing.
func clockwiseRingResult(tp *topology.Topology) *routing.Result {
	g := tp.Net
	n := graph.NodeID(g.NumSwitches())
	dests := g.Terminals()
	tbl := routing.NewTable(g, dests)
	for _, d := range dests {
		att := g.TerminalSwitch(d)
		for _, s := range g.Switches() {
			if s == att {
				tbl.Set(s, d, g.FindChannel(s, d))
			} else {
				tbl.Set(s, d, g.FindChannel(s, (s+1)%n))
			}
		}
	}
	return &routing.Result{Algorithm: "clockwise", Table: tbl, VCs: 1}
}

func TestSimulatorDetectsDeadlock(t *testing.T) {
	// All-to-all over an all-clockwise ring with tiny buffers must wedge:
	// the CDG cycle becomes a real buffer-hold cycle under load.
	tp := topology.Ring(6, 2)
	res := clockwiseRingResult(tp)
	msgs := AllToAllShift(tp.Net.Terminals(), 0)
	cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 1, MaxCycles: 2_000_000}
	r, err := Run(tp.Net, res, msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadlocked {
		t.Errorf("expected deadlock, got %+v", r)
	}
	if r.DeliveredMessages == r.TotalMessages {
		t.Error("deadlock flagged but all messages delivered")
	}
}

func TestNueThroughputBeatsTreeRouting(t *testing.T) {
	// Balanced multi-path routing must outperform single-spanning-tree
	// routing on a torus under all-to-all (the premise of Fig. 1a/10).
	tp := topology.Torus3D(3, 3, 3, 2, 1)
	g := tp.Net
	dests := g.Terminals()

	nue, err := core.New(core.DefaultOptions()).Route(g, dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree := bfs.SpanningTree(g, 0)
	tbl := routing.NewTable(g, dests)
	for _, d := range dests {
		for _, s := range g.Switches() {
			if p := tree.TreePath(s, d); len(p) > 0 {
				tbl.Set(s, d, p[0])
			}
		}
	}
	treeRes := &routing.Result{Algorithm: "tree", Table: tbl, VCs: 1}

	msgs := AllToAllShift(dests, 8)
	cfg := DefaultConfig()
	rNue, err := Run(g, nue, msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rTree, err := Run(g, treeRes, msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rNue.Deadlocked || rTree.Deadlocked {
		t.Fatal("unexpected deadlock")
	}
	if rNue.FlitsPerCycle <= rTree.FlitsPerCycle {
		t.Errorf("Nue throughput %.3f not better than tree routing %.3f",
			rNue.FlitsPerCycle, rTree.FlitsPerCycle)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	g, res := lineFixture(t)
	if _, err := Run(g, res, nil, Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestMaxCyclesTimeout(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	g := tp.Net
	res, err := core.New(core.DefaultOptions()).Route(g, g.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 10
	r, err := Run(g, res, AllToAllShift(g.Terminals(), 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.TimedOut {
		t.Error("MaxCycles not enforced")
	}
}

func TestTrafficGenerators(t *testing.T) {
	terms := []graph.NodeID{10, 11, 12, 13}
	full := AllToAllShift(terms, 0)
	if len(full) != 12 {
		t.Errorf("full all-to-all = %d messages, want 12", len(full))
	}
	limited := AllToAllShift(terms, 2)
	if len(limited) != 8 {
		t.Errorf("2-phase all-to-all = %d messages, want 8", len(limited))
	}
	for _, m := range full {
		if m.Src == m.Dst {
			t.Fatal("self message generated")
		}
	}
	rng := rand.New(rand.NewSource(1))
	ur := UniformRandom(terms, 100, rng)
	if len(ur) != 100 {
		t.Errorf("UniformRandom = %d messages, want 100", len(ur))
	}
	for _, m := range ur {
		if m.Src == m.Dst {
			t.Fatal("self message in uniform random")
		}
	}
	bi := Bisection(terms, 3)
	if len(bi) != 12 {
		t.Errorf("Bisection = %d messages, want 12", len(bi))
	}
}

func TestThroughputGBsConversion(t *testing.T) {
	r := Result{FlitsPerCycle: 2}
	if got := r.ThroughputGBs(); got != 8 {
		t.Errorf("ThroughputGBs = %g, want 8", got)
	}
}

func TestUniformRandomTrafficDelivers(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	g := tp.Net
	res, err := core.New(core.DefaultOptions()).Route(g, g.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	msgs := UniformRandom(g.Terminals(), 500, rng)
	r, err := Run(g, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.DeliveredMessages != 500 {
		t.Errorf("delivered %d/500, deadlocked=%v", r.DeliveredMessages, r.Deadlocked)
	}
}

func TestBisectionTrafficDelivers(t *testing.T) {
	tp := topology.KAryNTree(3, 2, 3)
	g := tp.Net
	res, err := core.New(core.DefaultOptions()).Route(g, g.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	msgs := Bisection(g.Terminals(), 2)
	r, err := Run(g, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.DeliveredMessages != len(msgs) {
		t.Errorf("delivered %d/%d, deadlocked=%v", r.DeliveredMessages, len(msgs), r.Deadlocked)
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 2, 1)
	g := tp.Net
	res, err := core.New(core.DefaultOptions()).Route(g, g.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := AllToAllShift(g.Terminals(), 0)
	a, err := Run(g, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.DeliveredFlits != b.DeliveredFlits {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMessagesBetweenDisconnectedTerminalsSkipped(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 2, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[0][0][0])
	g := faulty.Net
	var live []graph.NodeID
	for _, tm := range g.Terminals() {
		if g.Degree(tm) > 0 {
			live = append(live, tm)
		}
	}
	res, err := core.New(core.DefaultOptions()).Route(g, live, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Include messages touching orphaned terminals: the simulator must
	// skip them rather than crash or hang.
	msgs := AllToAllShift(g.Terminals(), 2)
	r, err := Run(g, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Error("deadlock flagged on fault-filtered traffic")
	}
}

// TestUnroutedMessageRefused: a result routed toward a sample of the
// destinations has no route to the others. A run that offers traffic to
// one of them is refused up front with a *WalkError naming the message,
// instead of stranding the packet at the switch where the table ends.
func TestUnroutedMessageRefused(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 1, 1)
	terms := tp.Net.Terminals()
	res, err := core.New(core.DefaultOptions()).Route(tp.Net, terms[:4], 2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := AllToAllShift(terms, 2)
	_, err = Run(tp.Net, res, msgs, PaperConfig())
	var we *WalkError
	if !errors.As(err, &we) || !errors.Is(err, routing.ErrNoRoute) {
		t.Fatalf("Run = %v, want a *WalkError for a missing route", err)
	}
	if m := msgs[we.MessageIndex]; slices.Contains(terms[:4], m.Dst) {
		t.Errorf("message %d (%d -> %d) goes to a routed destination", we.MessageIndex, m.Src, m.Dst)
	}
	// Traffic among the routed destinations alone still runs.
	r, err := Run(tp.Net, res, AllToAllShift(terms[:4], 0), PaperConfig())
	if err != nil || r.Deadlocked || r.DeliveredMessages != r.TotalMessages {
		t.Fatalf("routed traffic: %+v, %v", r, err)
	}
}

func TestLatencyAndUtilizationStats(t *testing.T) {
	g, res := lineFixture(t)
	terms := g.Terminals()
	cfg := Config{PacketFlits: 8, MessageFlits: 16, BufferPackets: 2}
	r, err := Run(g, res, []Message{{Src: terms[0], Dst: terms[2]}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One message over 4 channels, 2 packets: latency = makespan = 40.
	if r.AvgMsgLatency != 40 || r.MaxMsgLatency != 40 {
		t.Errorf("latency = %g/%g, want 40/40", r.AvgMsgLatency, r.MaxMsgLatency)
	}
	// Two switch-switch channels each busy 16 of 40 cycles.
	if r.MaxLinkUtilization != 0.4 {
		t.Errorf("max utilization = %g, want 0.4", r.MaxLinkUtilization)
	}
	if r.AvgLinkUtilization != 0.4 {
		t.Errorf("avg utilization = %g, want 0.4", r.AvgLinkUtilization)
	}
}
