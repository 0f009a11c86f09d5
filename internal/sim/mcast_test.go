package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcast"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// castConservation pins the generalized flit invariant: every flit in
// the network was either injected at a source or minted at a branch
// switch, so injected + replicated == delivered + in-flight.
func castConservation(t *testing.T, r Result) {
	t.Helper()
	if r.InjectedFlits+r.ReplicatedFlits != r.DeliveredFlits+r.InFlightFlits {
		t.Errorf("injected %d + replicated %d != delivered %d + in-flight %d",
			r.InjectedFlits, r.ReplicatedFlits, r.DeliveredFlits, r.InFlightFlits)
	}
}

// TestCastBroadcastDelivers: a Nue-routed broadcast over mcast-built
// trees must reach every receiver, replicate flits at branch switches
// (not inject one unicast copy per member), and keep the conservation
// invariant with zero stranded traffic.
func TestCastBroadcastDelivers(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	net := tp.Net
	terms := net.Terminals()
	res, err := core.New(core.DefaultOptions()).Route(net, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	groups := []mcast.Group{
		{ID: 1, Members: terms},                  // broadcast
		{ID: 2, Members: terms[:len(terms)/2+1]}, // partial group
	}
	cast, _, err := mcast.Build(net, res, groups)
	if err != nil {
		t.Fatal(err)
	}
	res.Cast = cast

	reg := telemetry.New()
	cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 2,
		Telemetry: reg.Sim()}
	msgs := []Message{{Group: 1}, {Group: 2}, {Group: 1}}
	r, err := Run(net, res, msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.TimedOut {
		t.Fatalf("cast exchange wedged: %+v", r)
	}
	if r.DeliveredMessages != r.TotalMessages || r.TotalMessages != len(msgs) {
		t.Errorf("delivered %d/%d messages, want %d", r.DeliveredMessages, r.TotalMessages, len(msgs))
	}
	castConservation(t, r)
	if r.InFlightFlits != 0 {
		t.Errorf("completed run left %d flits in flight", r.InFlightFlits)
	}
	// A broadcast tree over 9 switches must branch somewhere unless every
	// member fell back to UBM.
	g1 := cast.Group(1)
	if len(g1.Receivers) > 1 && r.ReplicatedFlits == 0 {
		t.Error("tree with multiple receivers replicated no flits")
	}
	// Each receiver (or UBM leg) gets the full message; total payload
	// delivered must be endpoints * MessageFlits.
	var endpoints int64
	for _, m := range msgs {
		g := cast.Group(m.Group)
		endpoints += int64(len(g.Receivers) + len(g.UBM))
	}
	if want := endpoints * int64(cfg.MessageFlits); r.DeliveredFlits != want {
		t.Errorf("delivered %d flits, want %d (%d endpoints x %d flits)",
			r.DeliveredFlits, want, endpoints, cfg.MessageFlits)
	}
	s := reg.Snapshot()
	if got := s.Counters["sim_flits_replicated_total"]; got != r.ReplicatedFlits {
		t.Errorf("sim_flits_replicated_total = %d, want %d", got, r.ReplicatedFlits)
	}
	if got := s.Counters["sim_deadlock_detected"]; got != 0 {
		t.Errorf("sim_deadlock_detected = %d, want 0", got)
	}
}

// cyclicCastFixture builds the multicast analogue of the Dally & Seitz
// ring: a 4-switch ring (one terminal each, one virtual channel) with
// four hand-built cast path-trees rotated clockwise — group i runs
// s_i -> s_{i+1} -> s_{i+2} and ejects to the terminal there. Each tree
// is individually acyclic, but the union of their channel dependencies
// is the full clockwise ring cycle, so concurrent traffic wedges in a
// circular credit wait.
func cyclicCastFixture(t *testing.T) (*graph.Network, *routing.Result, []Message) {
	t.Helper()
	tp := topology.Ring(4, 1)
	net := tp.Net
	switches := net.Switches()
	terms := net.Terminals()

	// Orient the ring clockwise (same walk as cyclicRingFixture).
	order := make([]graph.NodeID, 0, len(switches))
	hop := make(map[graph.NodeID]graph.ChannelID)
	prev := graph.NoNode
	cur := switches[0]
	for i := 0; i < len(switches); i++ {
		order = append(order, cur)
		for _, c := range net.Out(cur) {
			to := net.Channel(c).To
			if net.IsSwitch(to) && to != prev {
				hop[cur] = c
				prev, cur = cur, to
				break
			}
		}
	}
	if len(hop) != len(switches) {
		t.Fatalf("ring orientation found %d hops, want %d", len(hop), len(switches))
	}
	eject := func(sw, term graph.NodeID) graph.ChannelID {
		for _, c := range net.Out(sw) {
			if net.Channel(c).To == term {
				return c
			}
		}
		t.Fatalf("no ejection channel %d -> %d", sw, term)
		return graph.NoChannel
	}
	termAt := func(sw graph.NodeID) graph.NodeID {
		for _, m := range terms {
			if net.TerminalSwitch(m) == sw {
				return m
			}
		}
		t.Fatalf("no terminal at switch %d", sw)
		return graph.NoNode
	}

	cast := routing.NewCastTable()
	msgs := make([]Message, 0, len(order))
	for i := range order {
		s0, s1, s2 := order[i], order[(i+1)%len(order)], order[(i+2)%len(order)]
		src, dst := termAt(s0), termAt(s2)
		g := &routing.CastGroup{
			ID:        i + 1,
			Source:    src,
			Members:   []graph.NodeID{src, dst},
			Receivers: []graph.NodeID{dst},
		}
		g.AddOut(s0, hop[s0])
		g.AddOut(s1, hop[s1])
		g.AddOut(s2, eject(s2, dst))
		cast.Add(g)
		msgs = append(msgs, Message{Group: i + 1})
	}
	res := &routing.Result{Algorithm: "cyclic-cast-ring",
		Table: routing.NewTable(net, terms), VCs: 1, Cast: cast}
	return net, res, msgs
}

// TestCastRingDeadlock is the adversarial proof that mis-built cast
// trees produce real deadlocks in the flit simulator: the rotated
// path-trees of cyclicCastFixture wedge, the event-queue-drain detector
// fires (not the timeout), and conservation still holds on the wedged
// state.
func TestCastRingDeadlock(t *testing.T) {
	net, res, msgs := cyclicCastFixture(t)
	reg := telemetry.New()
	cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 1,
		Telemetry: reg.Sim()}
	r, err := Run(net, res, msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadlocked {
		t.Fatal("cyclic cast trees did not deadlock — replication bypasses the credit loop")
	}
	if r.TimedOut {
		t.Error("deadlock must be detected by the event-queue drain, not a timeout")
	}
	if r.DeliveredMessages == r.TotalMessages {
		t.Error("wedged run claims every cast message delivered")
	}
	castConservation(t, r)
	if r.InFlightFlits == 0 {
		t.Error("deadlocked run reports no in-flight flits")
	}
	if got := reg.Snapshot().Counters["sim_deadlock_detected"]; got != 1 {
		t.Errorf("sim_deadlock_detected = %d, want 1", got)
	}
}

// TestCastRingNoDeadlockWhenBuilt is the control: the same ring, the
// same group memberships and the same single-VC simulator configuration,
// but with the trees built by mcast.Build inside Nue's acyclic CDG
// (falling back to UBM where a tree cannot be admitted). The exchange
// must complete.
func TestCastRingNoDeadlockWhenBuilt(t *testing.T) {
	tp := topology.Ring(4, 1)
	net := tp.Net
	terms := net.Terminals()
	res, err := core.New(core.DefaultOptions()).Route(net, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same rotated memberships as the adversarial fixture: {t_i, t_{i+2}}.
	groups := make([]mcast.Group, len(terms))
	for i := range terms {
		groups[i] = mcast.Group{ID: i + 1,
			Members: []graph.NodeID{terms[i], terms[(i+2)%len(terms)]}}
	}
	cast, _, err := mcast.Build(net, res, groups)
	if err != nil {
		t.Fatal(err)
	}
	res.Cast = cast

	msgs := make([]Message, len(groups))
	for i := range groups {
		msgs[i] = Message{Group: i + 1}
	}
	cfg := Config{PacketFlits: 8, MessageFlits: 64, BufferPackets: 1}
	r, err := Run(net, res, msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.TimedOut {
		t.Fatalf("mcast-built trees wedged on the ring: %+v", r)
	}
	if r.DeliveredMessages != r.TotalMessages {
		t.Errorf("delivered %d/%d cast messages", r.DeliveredMessages, r.TotalMessages)
	}
	castConservation(t, r)
}

// TestCastUBMFallback: with explicit per-pair paths present (general
// mode), the builder routes every member as a UBM leg; the simulation
// must deliver the full message to each member with zero replication
// (the legs are plain unicast trains).
func TestCastUBMFallback(t *testing.T) {
	tp := topology.Ring(4, 1)
	net := tp.Net
	terms := net.Terminals()
	res, err := core.New(core.DefaultOptions()).Route(net, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups := []mcast.Group{{ID: 1, Members: terms}}
	cast, _, err := mcast.Build(net, res, groups)
	if err != nil {
		t.Fatal(err)
	}
	g := cast.Group(1)
	if len(g.UBM) == 0 {
		// Force the fallback by rebuilding the group as UBM-only: strip
		// the tree and move every receiver to the UBM list.
		ubm := &routing.CastGroup{ID: 1, Source: g.Source, Members: g.Members,
			SL: g.SL, UBM: append(append([]graph.NodeID(nil), g.Receivers...), g.UBM...)}
		cast = routing.NewCastTable()
		cast.Add(ubm)
		g = ubm
	}
	res.Cast = cast

	r, err := Run(net, res, []Message{{Group: 1}}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.TimedOut {
		t.Fatalf("UBM fallback wedged: %+v", r)
	}
	if r.DeliveredMessages != 1 {
		t.Errorf("delivered %d messages, want 1", r.DeliveredMessages)
	}
	if r.ReplicatedFlits != 0 {
		t.Errorf("UBM-only group replicated %d flits, want 0", r.ReplicatedFlits)
	}
	want := int64(len(g.UBM)) * int64(DefaultConfig().MessageFlits)
	if r.DeliveredFlits != want {
		t.Errorf("delivered %d flits, want %d (%d UBM legs)", r.DeliveredFlits, want, len(g.UBM))
	}
	castConservation(t, r)
}
