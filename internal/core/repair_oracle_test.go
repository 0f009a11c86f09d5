package core

// White-box repair edge cases certified by the independent oracle
// (internal/oracle): a repair whose original escape-tree root is the
// failed component, and back-to-back cable failures between one switch
// pair. These are the scenarios where the incremental path diverges
// furthest from a fresh routing — exactly where an engine-shared bug
// would hide, and exactly what the disjoint checker is for.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// hubTopology builds a ring of n switches plus a central hub linked to
// every ring switch, with one terminal per switch (hub included). The
// hub has maximal betweenness by construction, so Nue's central-root
// heuristic provably selects it as the escape-tree root.
func hubTopology(n int) (*topology.Topology, graph.NodeID) {
	b := graph.NewBuilder()
	ring := make([]graph.NodeID, n)
	for i := range ring {
		ring[i] = b.AddSwitch("r" + string(rune('0'+i)))
	}
	hub := b.AddSwitch("hub")
	for i, s := range ring {
		b.AddLink(s, ring[(i+1)%n])
		b.AddLink(hub, s)
	}
	for _, s := range append(append([]graph.NodeID(nil), ring...), hub) {
		t := b.AddTerminal("h" + string(rune('0'+int(s))))
		b.AddLink(t, s)
	}
	return &topology.Topology{Net: b.MustBuild(), Name: "hub-ring"}, hub
}

// partitionByUse splits the table's destinations per layer into those
// whose forwarding trees traverse a failed channel (plus those whose
// node lost all channels) and the kept rest.
func partitionByUse(net *graph.Network, table *routing.Table, destLayer []uint8) (repair, kept map[uint8][]graph.NodeID, broken int) {
	var failedCh []graph.ChannelID
	for c := 0; c < net.NumChannels(); c++ {
		if net.Channel(graph.ChannelID(c)).Failed {
			failedCh = append(failedCh, graph.ChannelID(c))
		}
	}
	repair = map[uint8][]graph.NodeID{}
	kept = map[uint8][]graph.NodeID{}
	for i, d := range table.Dests() {
		uses := net.Degree(d) == 0
		for _, c := range failedCh {
			if uses {
				break
			}
			uses = table.Next(net.Channel(c).From, d) == c
		}
		var l uint8
		if destLayer != nil {
			l = destLayer[i]
		}
		if uses {
			repair[l] = append(repair[l], d)
			broken++
		} else {
			kept[l] = append(kept[l], d)
		}
	}
	return repair, kept, broken
}

// repairAll runs RepairLayer for every affected layer.
func repairAll(t *testing.T, eng *Nue, net *graph.Network, table *routing.Table, repair, kept map[uint8][]graph.NodeID) {
	t.Helper()
	for l, rep := range repair {
		if _, err := eng.RepairLayer(RepairRequest{Net: net, Table: table, Repair: rep, Kept: kept[l]}); err != nil {
			t.Fatalf("layer %d: repair failed: %v", l, err)
		}
	}
}

// TestRepairEscapeRootFailure fails the escape-tree root itself. The
// original routing's escape paths all radiate from the hub; the repair
// must re-root on the surviving ring and still merge deadlock-free with
// the kept ring routes. k=1 keeps the whole fabric in one escape-
// dominated layer, the regime with the least routing freedom.
func TestRepairEscapeRootFailure(t *testing.T) {
	tp, hub := hubTopology(8)
	net := tp.Net
	eng := New(DefaultOptions())
	dests := net.Terminals()

	// The scenario's premise, checked white-box: the central-root
	// heuristic picks the hub as escape root.
	if plan, _, err := eng.planLayer(net, dests, Plan{}, 1, 1); err != nil || plan.Root != hub {
		t.Fatalf("premise broken: planLayer chose %d (%v), want hub %d", plan.Root, err, hub)
	}

	res, err := eng.Route(net, dests, 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Fail the hub switch: every attached link goes down, including its
	// terminal's (fabric SwitchFail semantics).
	faulty := net.Clone()
	for c := 0; c < faulty.NumChannels(); c++ {
		id := graph.ChannelID(c)
		ch := faulty.Channel(id)
		if ch.From == hub || ch.To == hub {
			faulty.SetChannelFailed(id, true)
		}
	}

	table := res.Table.Clone(faulty)
	repair, kept, broken := partitionByUse(faulty, table, res.DestLayer)
	if broken == 0 {
		t.Fatal("hub failure broke no destination; the escape tree did not radiate from the hub")
	}
	// After the failure the repair must pick a live root off the ring.
	flat := repair[0]
	if plan, _, err := eng.planLayer(faulty, flat, Plan{}, 1, 1); err != nil || plan.Root == hub || faulty.Degree(plan.Root) == 0 {
		t.Fatalf("post-failure root %d is unusable (hub=%d, %v)", plan.Root, hub, err)
	}

	repairAll(t, eng, faulty, table, repair, kept)
	merged := &routing.Result{Algorithm: "nue-repair", Table: table, VCs: res.VCs, DestLayer: res.DestLayer}
	cert, err := oracle.Certify(faulty, merged, oracle.Options{MaxVCs: 1})
	if err != nil {
		t.Fatalf("repaired routing refuted: %v", err)
	}
	if !cert.Connected || !cert.DeadlockFree {
		t.Fatalf("certificate incomplete: %+v", cert)
	}
}

// TestRepairBothCableDirectionsBackToBack uses a torus with redundant
// cables (r=2). It fails one cable (both directed halves go down
// together — the duplex model), repairs and certifies; asserts that
// failing the reverse half again is a no-op; then fails the parallel
// cable between the same switch pair and repairs again on top of the
// first repair. Every intermediate configuration must certify.
func TestRepairBothCableDirectionsBackToBack(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 2)
	net := tp.Net
	eng := New(DefaultOptions())
	dests := net.Terminals()
	res, err := eng.Route(net, dests, 2)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 2}); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// A switch-to-switch cable and its parallel twin (same endpoints,
	// distinct channel).
	var first, twin graph.ChannelID = graph.NoChannel, graph.NoChannel
	for c := 0; c < net.NumChannels() && twin == graph.NoChannel; c++ {
		id := graph.ChannelID(c)
		ch := net.Channel(id)
		if !net.IsSwitch(ch.From) || !net.IsSwitch(ch.To) {
			continue
		}
		if first == graph.NoChannel {
			first = id
			continue
		}
		f := net.Channel(first)
		if ch.From == f.From && ch.To == f.To && id != f.Reverse {
			twin = id
		}
	}
	if twin == graph.NoChannel {
		t.Fatal("no parallel cable found; r=2 torus expected")
	}

	faulty := net.Clone()

	// First failure: one cable, both directions down at once.
	if !faulty.SetChannelFailed(first, true) {
		t.Fatal("first cable was already failed")
	}
	table := res.Table.Clone(faulty)
	repair, kept, broken := partitionByUse(faulty, table, res.DestLayer)
	if broken > 0 {
		repairAll(t, eng, faulty, table, repair, kept)
	}
	merged := &routing.Result{Algorithm: "nue-repair", Table: table, VCs: res.VCs, DestLayer: res.DestLayer}
	if _, err := oracle.Certify(faulty, merged, oracle.Options{MaxVCs: 2}); err != nil {
		t.Fatalf("after first cable failure: %v", err)
	}

	// Back-to-back: the reverse direction of the same cable is already
	// down — the duplex model makes this a no-op, and the certified
	// table must be untouched.
	if faulty.SetChannelFailed(faulty.Channel(first).Reverse, true) {
		t.Fatal("failing the reverse half of a downed cable must be a no-op")
	}
	if _, err := oracle.Certify(faulty, merged, oracle.Options{MaxVCs: 2}); err != nil {
		t.Fatalf("no-op invalidated the configuration: %v", err)
	}

	// Second failure: the parallel twin, repaired on top of the first
	// repair (the back-to-back transition the fabric manager performs).
	if !faulty.SetChannelFailed(twin, true) {
		t.Fatal("twin cable was already failed")
	}
	repair, kept, broken = partitionByUse(faulty, merged.Table, res.DestLayer)
	if broken == 0 {
		t.Fatal("twin failure broke no destination; pick a different cable")
	}
	repairAll(t, eng, faulty, merged.Table, repair, kept)
	cert, err := oracle.Certify(faulty, merged, oracle.Options{MaxVCs: 2})
	if err != nil {
		t.Fatalf("after both cables failed: %v", err)
	}
	if !cert.Connected || !cert.DeadlockFree {
		t.Fatalf("certificate incomplete: %+v", cert)
	}
}

// TestBacktrackAfterShortcutSeeds: on these seeds an 8x8x8 torus routed
// with 4 VCs used to carry a 22-vertex dependency cycle on VL 0.
// backtrack re-routed a node u over a stacked alternative a = (w, u) that
// had been accepted behind the channel w used at the time; a §4.6.3
// shortcut had re-routed w since, and the dependency (usedChannel[w], a)
// was never established.
func TestBacktrackAfterShortcutSeeds(t *testing.T) {
	net := topology.Torus3D(8, 8, 8, 1, 1).Net
	for _, seed := range []int64{1187360069141242400, 5832507463751417765, 8072522770810882875} {
		opts := DefaultOptions()
		opts.Seed = seed
		res, err := New(opts).Route(net, net.Terminals(), 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := verify.Check(net, res, nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 4}); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
