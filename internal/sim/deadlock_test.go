package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// cyclicRingFixture builds a 4-switch ring (one terminal each) routed
// strictly clockwise with a single virtual channel — the textbook cyclic
// channel dependency (Dally & Seitz) that Nue exists to avoid. Every
// packet that is not at its destination switch forwards to the next ring
// switch in the same direction, so the four ring channels wait on each
// other in a cycle.
func cyclicRingFixture(t *testing.T) (*graph.Network, *routing.Result, []graph.NodeID) {
	t.Helper()
	tp := topology.Ring(4, 1)
	net := tp.Net
	switches := net.Switches()
	terms := net.Terminals()

	// Orient the ring: from each switch, the clockwise hop is the switch
	// neighbor we have not come from.
	next := make(map[graph.NodeID]graph.ChannelID)
	prev := graph.NoNode
	cur := switches[0]
	for i := 0; i < len(switches); i++ {
		for _, c := range net.Out(cur) {
			to := net.Channel(c).To
			if net.IsSwitch(to) && to != prev {
				next[cur] = c
				prev, cur = cur, to
				break
			}
		}
	}
	if len(next) != len(switches) {
		t.Fatalf("ring orientation found %d hops, want %d", len(next), len(switches))
	}

	table := routing.NewTable(net, terms)
	for _, sw := range switches {
		for _, d := range terms {
			if net.TerminalSwitch(d) == sw {
				// Ejection: the switch's channel to the terminal itself.
				for _, c := range net.Out(sw) {
					if net.Channel(c).To == d {
						table.Set(sw, d, c)
					}
				}
				continue
			}
			table.Set(sw, d, next[sw])
		}
	}
	res := &routing.Result{Algorithm: "cyclic-ring", Table: table, VCs: 1}
	return net, res, terms
}

// allToAll builds src->dst messages between every ordered terminal pair.
func allToAll(terms []graph.NodeID) []Message {
	var msgs []Message
	for _, s := range terms {
		for _, d := range terms {
			if s != d {
				msgs = append(msgs, Message{Src: s, Dst: d})
			}
		}
	}
	return msgs
}

// TestDeadlockOracle is the adversarial proof that the deadlock detector
// is real: deliberately cyclic routing on a 4-ring must wedge, the
// detector must fire (not the timeout), and the sim_deadlock_detected
// counter must increment. Stubbing the detector out (making
// detectDeadlock return false) fails this test on all three assertions.
func TestDeadlockOracle(t *testing.T) {
	net, res, terms := cyclicRingFixture(t)
	reg := telemetry.New()
	cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 1,
		Telemetry: reg.Sim()}
	r, err := Run(net, res, allToAll(terms), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadlocked {
		t.Fatal("cyclic ring routing did not deadlock — the oracle found nothing to detect")
	}
	if r.TimedOut {
		t.Error("deadlock must be detected by the event-queue drain, not a timeout")
	}
	if r.DeliveredFlits >= r.InjectedFlits {
		t.Errorf("wedged run delivered all injected flits (%d)", r.DeliveredFlits)
	}
	if r.DeadlockSweeps == 0 {
		t.Error("detector never swept the network")
	}
	s := reg.Snapshot()
	if got := s.Counters["sim_deadlock_detected"]; got != 1 {
		t.Errorf("sim_deadlock_detected = %d, want 1", got)
	}
	if s.Counters["sim_runs_total"] != 1 {
		t.Errorf("sim_runs_total = %d, want 1", s.Counters["sim_runs_total"])
	}
	// The wedge strands traffic: the independent sweep must see it.
	if s.Gauges["sim_flits_in_flight"] == 0 {
		t.Error("deadlocked run reports no in-flight flits")
	}
	var found bool
	for _, e := range s.Events {
		if e.Kind == "sim_deadlock" {
			found = true
		}
	}
	if !found {
		t.Error("no sim_deadlock event in the ring")
	}
}

// TestNueRingDoesNotDeadlock is the control for the oracle: identical
// topology, traffic and simulator configuration, but Nue routing with the
// same single virtual channel. Nue's escape-path construction breaks the
// ring cycle, so the exchange completes.
func TestNueRingDoesNotDeadlock(t *testing.T) {
	tp := topology.Ring(4, 1)
	terms := tp.Net.Terminals()
	res, err := core.New(core.DefaultOptions()).Route(tp.Net, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 1,
		Telemetry: reg.Sim()}
	r, err := Run(tp.Net, res, allToAll(terms), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.TimedOut {
		t.Fatalf("nue-routed ring wedged: %+v", r)
	}
	if r.DeliveredMessages != r.TotalMessages {
		t.Errorf("delivered %d/%d messages", r.DeliveredMessages, r.TotalMessages)
	}
	if got := reg.Snapshot().Counters["sim_deadlock_detected"]; got != 0 {
		t.Errorf("sim_deadlock_detected = %d, want 0", got)
	}
}

// TestFlitConservation pins the invariant the telemetry layer is built
// on: injected == delivered + in-flight, where in-flight is measured by
// an independent sweep of the buffers and event queue (never derived from
// the other two counters). Checked on a completed run, a deadlocked run
// and a timed-out run.
func TestFlitConservation(t *testing.T) {
	check := func(t *testing.T, r Result) {
		t.Helper()
		if r.InjectedFlits != r.DeliveredFlits+r.InFlightFlits {
			t.Errorf("injected %d != delivered %d + in-flight %d",
				r.InjectedFlits, r.DeliveredFlits, r.InFlightFlits)
		}
	}

	t.Run("completed", func(t *testing.T) {
		tp := topology.Torus3D(3, 3, 2, 1, 1)
		terms := tp.Net.Terminals()
		res, err := core.New(core.DefaultOptions()).Route(tp.Net, terms, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(tp.Net, res, allToAll(terms), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		check(t, r)
		if r.InFlightFlits != 0 {
			t.Errorf("completed run left %d flits in flight", r.InFlightFlits)
		}
		if r.InjectedFlits == 0 {
			t.Error("no flits injected")
		}
	})

	t.Run("deadlocked", func(t *testing.T) {
		net, res, terms := cyclicRingFixture(t)
		cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 1}
		r, err := Run(net, res, allToAll(terms), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Deadlocked {
			t.Fatal("fixture did not deadlock")
		}
		check(t, r)
		if r.InFlightFlits == 0 {
			t.Error("deadlocked run reports no in-flight flits")
		}
	})

	t.Run("timed-out", func(t *testing.T) {
		tp := topology.Torus3D(3, 3, 2, 1, 1)
		terms := tp.Net.Terminals()
		res, err := core.New(core.DefaultOptions()).Route(tp.Net, terms, 2)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		cfg := DefaultConfig()
		cfg.MaxCycles = 40 // far too few cycles for the full exchange
		cfg.Telemetry = reg.Sim()
		r, err := Run(tp.Net, res, allToAll(terms), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.TimedOut {
			t.Skip("exchange finished within the cycle cap")
		}
		check(t, r)
		if got := reg.Snapshot().Counters["sim_timeouts_total"]; got != 1 {
			t.Errorf("sim_timeouts_total = %d, want 1", got)
		}
	})
}

// TestStallAndQueueTelemetry: a congested run must report stall cycles
// and a queue high-water mark, and the telemetry counters must equal the
// Result fields (the bundle is fed from the same accounting).
func TestStallAndQueueTelemetry(t *testing.T) {
	tp := topology.Ring(6, 2)
	terms := tp.Net.Terminals()
	res, err := core.New(core.DefaultOptions()).Route(tp.Net, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 1,
		Telemetry: reg.Sim()}
	r, err := Run(tp.Net, res, allToAll(terms), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatal("nue-routed ring deadlocked")
	}
	if r.StallCycles == 0 {
		t.Error("all-to-all over a 6-ring reported zero stall cycles")
	}
	s := reg.Snapshot()
	if got := s.Counters["sim_stall_cycles_total"]; got != r.StallCycles {
		t.Errorf("sim_stall_cycles_total = %d, want %d", got, r.StallCycles)
	}
	if got := s.Counters["sim_flits_injected_total"]; got != r.InjectedFlits {
		t.Errorf("sim_flits_injected_total = %d, want %d", got, r.InjectedFlits)
	}
	if got := s.Counters["sim_flits_delivered_total"]; got != r.DeliveredFlits {
		t.Errorf("sim_flits_delivered_total = %d, want %d", got, r.DeliveredFlits)
	}
	var hwm int64
	for vl := 0; vl < telemetry.MaxTrackedVCs; vl++ {
		if v := s.Gauges["sim_vc_queue_depth_hwm_vc"+itoa(vl)]; v > hwm {
			hwm = v
		}
	}
	if hwm == 0 {
		t.Error("no queue high-water mark recorded under congestion")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestSwitchDestinationReleasesBuffer routes a terminal-free ring toward
// its switches: a packet that ends at a switch is absorbed there and must
// not hold an input-buffer slot, or BufferPackets packets to one switch
// wedge a deadlock-free routing.
func TestSwitchDestinationReleasesBuffer(t *testing.T) {
	tp := topology.Ring(4, 0)
	sw := tp.Net.Switches()
	res, err := core.New(core.DefaultOptions()).Route(tp.Net, sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([]Message, 4)
	for i := range msgs {
		msgs[i] = Message{Src: sw[0], Dst: sw[1]}
	}
	r, err := Run(tp.Net, res, msgs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.TimedOut || r.DeliveredMessages != len(msgs) {
		t.Fatalf("delivered %d/%d messages (deadlocked %v, timed out %v)",
			r.DeliveredMessages, len(msgs), r.Deadlocked, r.TimedOut)
	}
}
