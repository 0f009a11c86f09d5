package oracle_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/oracle/exists"
	"repro/internal/oracle/stress"
	"repro/internal/topology"
)

// The existence procedure's tests sit beside the oracle rather than in
// package exists: a routable verdict is only as good as oracle.Certify's
// acceptance of its witness, which most of them check.

// directedRing returns a ring whose switch-to-switch links are alive in
// the forward direction only (reverse halves one-way failed): the
// canonical genuinely-unroutable instance at one lane.
func directedRing(t testing.TB, n, terms int) *topology.Topology {
	t.Helper()
	tp := topology.Ring(n, terms)
	net := tp.Net
	for c := 0; c < net.NumChannels(); c += 2 {
		fwd := net.Channel(graph.ChannelID(c))
		if net.IsSwitch(fwd.From) && net.IsSwitch(fwd.To) {
			if !net.SetHalfFailed(fwd.Reverse, true) {
				t.Fatalf("reverse of channel %d already failed", c)
			}
		}
	}
	if net.Symmetric() {
		t.Fatal("directedRing: network still symmetric")
	}
	return tp
}

// certifyWitness runs the decision's witness through the oracle at a
// one-lane budget.
func certifyWitness(t *testing.T, tp *topology.Topology, dec *exists.Decision) {
	t.Helper()
	if dec.Witness == nil {
		t.Fatal("routable decision without witness")
	}
	if _, err := oracle.Certify(tp.Net, dec.Witness, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("witness failed certification: %v", err)
	}
}

func TestDecideSymmetricFamilies(t *testing.T) {
	cases := []struct {
		name string
		tp   *topology.Topology
	}{
		{"ring", topology.Ring(6, 2)},
		{"torus", topology.Torus3D(3, 3, 2, 1, 1)},
		{"mesh", topology.Mesh3D(3, 3, 1, 1, 1)},
		{"fullmesh", topology.FullMesh(5, 2)},
		{"dfgroup", topology.DragonflyGroup(4, 2)},
		{"fattree", topology.KAryNTree(2, 3, 2)},
		{"kautz", topology.Kautz(2, 3, 1, 1)},
		{"shortcut", topology.RingWithShortcut()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := exists.Decide(tc.tp.Net, exists.Options{})
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			if !dec.Routable {
				t.Fatalf("symmetric topology %s declared unroutable", tc.name)
			}
			if len(dec.Order) == 0 && dec.Pairs > 0 {
				t.Fatal("routable decision without a channel order")
			}
			certifyWitness(t, tc.tp, dec)
		})
	}
}

func TestDecideDirectedRingUnroutable(t *testing.T) {
	tp := directedRing(t, 6, 1)
	dec, err := exists.Decide(tp.Net, exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if dec.Routable {
		t.Fatal("directed ring declared routable at one lane")
	}
	if dec.Trap == nil {
		t.Fatal("unroutable verdict without a forced-dependency trap")
	}
	if err := exists.ValidateTrap(tp.Net, dec.Trap); err != nil {
		t.Fatalf("trap failed validation: %v", err)
	}
	// The trap must be a genuine cycle over the ring's forward channels.
	if len(dec.Trap) < 3 {
		t.Fatalf("trap cycle has %d entries, want >= 3", len(dec.Trap))
	}
	// The engine adapter must refuse rather than emit a table.
	if _, err := (exists.Engine{}).Route(tp.Net, nil, 1); err == nil {
		t.Fatal("exists.Engine routed an unroutable network")
	}
}

func TestValidateTrapRejectsForgeries(t *testing.T) {
	tp := directedRing(t, 6, 1)
	dec, err := exists.Decide(tp.Net, exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if dec.Routable || len(dec.Trap) == 0 {
		t.Fatal("expected a trap")
	}
	broken := append([]exists.Forced(nil), dec.Trap...)
	broken[0].From, broken[0].To = broken[0].To, broken[0].From
	if err := exists.ValidateTrap(tp.Net, broken); err == nil {
		t.Fatal("ValidateTrap accepted a scrambled trap")
	}
	// A symmetric ring forces nothing: the same trap must not validate
	// against the pristine network.
	pristine := topology.Ring(6, 1)
	if err := exists.ValidateTrap(pristine.Net, dec.Trap); err == nil {
		t.Fatal("ValidateTrap accepted a trap against a routable network")
	}
	if err := exists.ValidateTrap(tp.Net, nil); err == nil {
		t.Fatal("ValidateTrap accepted an empty trap")
	}
}

func TestDecideOneWayPartial(t *testing.T) {
	// Half-fail every non-spanning-tree link of a full mesh: asymmetric,
	// but the intact duplex tree keeps it provably routable.
	tp := topology.FullMesh(6, 2)
	net := tp.Net
	tree := bfs.SpanningTree(net, net.Switches()[0])
	for c := 0; c < net.NumChannels(); c += 2 {
		fwd := net.Channel(graph.ChannelID(c))
		if !net.IsSwitch(fwd.From) || !net.IsSwitch(fwd.To) {
			continue
		}
		if !tree.IsTreeChannel(graph.ChannelID(c)) {
			net.SetHalfFailed(graph.ChannelID(c), true)
		}
	}
	if net.Symmetric() {
		t.Fatal("expected an asymmetric network")
	}
	dec, err := exists.Decide(net, exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if !dec.Routable {
		t.Fatal("tree-intact one-way network declared unroutable")
	}
	certifyWitness(t, tp, dec)
}

func TestDecideTournament(t *testing.T) {
	// Strongly connected 4-switch tournament: 4-cycle 0->1->2->3->0 with
	// chords 0->2 and 1->3. No duplex link anywhere, no forced cycle —
	// the exhaustive search must settle it, and it IS routable (e.g. the
	// order 1->3 < 0->2 < 2->3 < 3->0 < 0->1 < 1->2 serves all pairs).
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, 4)
	for i := range sw {
		sw[i] = b.AddSwitch("t")
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 3}}
	fwds := make([]graph.ChannelID, len(pairs))
	for i, p := range pairs {
		fwds[i] = b.AddLink(sw[p[0]], sw[p[1]])
	}
	for i := range sw {
		tm := b.AddTerminal("h")
		b.AddLink(tm, sw[i])
	}
	net := b.MustBuild()
	for _, c := range fwds {
		net.SetHalfFailed(net.Channel(c).Reverse, true)
	}
	dec, err := exists.Decide(net, exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if !dec.Exhaustive {
		t.Fatal("tournament should require the exhaustive search")
	}
	if !dec.Routable {
		t.Fatal("routable tournament declared unroutable")
	}
	if _, err := oracle.Certify(net, dec.Witness, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("witness failed certification: %v", err)
	}
}

func TestDecideTrivialSameSwitchPairs(t *testing.T) {
	b := graph.NewBuilder()
	s := b.AddSwitch("s")
	t1 := b.AddTerminal("a")
	t2 := b.AddTerminal("b")
	b.AddLink(t1, s)
	b.AddLink(t2, s)
	net := b.MustBuild()
	dec, err := exists.Decide(net, exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if !dec.Routable || dec.Pairs != 0 {
		t.Fatalf("single-switch network: routable=%v pairs=%d", dec.Routable, dec.Pairs)
	}
	if _, err := oracle.Certify(net, dec.Witness, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("witness failed certification: %v", err)
	}
}

func TestExistsEngineCertifies(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 2, 1)
	eng := exists.Engine{}
	if c := eng.Claims(); !c.DeadlockFree || c.MinVCs != 1 {
		t.Fatalf("unexpected claims: %+v", c)
	}
	res, err := eng.Route(tp.Net, nil, 1)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if res.VCs != 1 {
		t.Fatalf("witness uses %d VCs, want 1", res.VCs)
	}
	if _, err := oracle.Certify(tp.Net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("engine output failed certification: %v", err)
	}
}

func BenchmarkDecide(b *testing.B) {
	tp := topology.Torus3D(4, 4, 2, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := exists.Decide(tp.Net, exists.Options{})
		if err != nil || !dec.Routable {
			b.Fatalf("Decide: routable=%v err=%v", dec != nil && dec.Routable, err)
		}
	}
}

// directedFigureEight returns two directed rings 0->1->2->3->0 and
// 0->4->5->6->0 of switches sharing switch 0, one terminal each, with the
// links added in a shuffled order.
func directedFigureEight() *graph.Network {
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, 7)
	for i := range sw {
		sw[i] = b.AddSwitch(fmt.Sprintf("sw%d", i))
	}
	var fwd []graph.ChannelID
	for _, l := range [][2]int{{6, 0}, {3, 0}, {0, 4}, {0, 1}, {5, 6}, {4, 5}, {2, 3}, {1, 2}} {
		fwd = append(fwd, b.AddLink(sw[l[0]], sw[l[1]]))
	}
	for i, s := range sw {
		b.AddLink(s, b.AddTerminal(fmt.Sprintf("t%d", i)))
	}
	net := b.MustBuild()
	for _, c := range fwd {
		net.SetHalfFailed(net.Channel(c).Reverse, true)
	}
	return net
}

// directedTheta is two directed 4-rings that share their first link,
// 0 -> 1. Switch 1 is entered only over that link and leaves over 1 -> 2
// and 1 -> 4, so both transitions out of channel 0 are forced and either
// ring closes a trap. The link to 4 is added first: its channel has the
// lower ID, while the switch's adjacency lists the nearer switch 2 first.
func directedTheta() *graph.Network {
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, 6)
	for i := range sw {
		sw[i] = b.AddSwitch(fmt.Sprintf("sw%d", i))
	}
	var fwd []graph.ChannelID
	for _, l := range [][2]int{{0, 1}, {1, 4}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 0}} {
		fwd = append(fwd, b.AddLink(sw[l[0]], sw[l[1]]))
	}
	for i, s := range sw {
		b.AddLink(s, b.AddTerminal(fmt.Sprintf("t%d", i)))
	}
	net := b.MustBuild()
	for _, c := range fwd {
		net.SetHalfFailed(net.Channel(c).Reverse, true)
	}
	return net
}

// trapString spells a trap out entry by entry, From>To@Src-Dst.
func trapString(trap []exists.Forced) string {
	parts := make([]string, len(trap))
	for i, f := range trap {
		parts[i] = fmt.Sprintf("%d>%d@%d-%d", f.From, f.To, f.Src, f.Dst)
	}
	return strings.Join(parts, " ")
}

// TestDecideTrapGoldens pins the exact trap Decide returns, entry order
// included, for the 6-ring, a directed figure-eight, a directed theta
// and the first ten one-way stress seeds it refutes. The traps were
// recorded at commit d073fab, before the forced dependencies moved onto
// cdg.Induced, except the theta's, the one fixture whose trap tells the
// sorted successor order from insertion order; which cycle the search
// closes first, and which required pair each entry names, is part of the
// contract.
func TestDecideTrapGoldens(t *testing.T) {
	dec, err := exists.Decide(directedRing(t, 6, 1).Net, exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if got, want := trapString(dec.Trap), "0>2@0-2 2>4@0-3 4>6@0-4 6>8@0-5 8>10@1-0 10>0@2-1"; got != want {
		t.Errorf("6-ring trap %q, want golden %q", got, want)
	}
	// Two directed 4-rings through switch 0, links added out of ring
	// order: the trap runs through both rings, and channel IDs do not
	// increase along it.
	dec, err = exists.Decide(directedFigureEight(), exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if got, want := trapString(dec.Trap), "0>6@4-1 6>14@0-2 14>12@0-3 12>2@1-0 2>4@1-4 4>10@0-5 10>8@0-6 8>0@4-0"; got != want {
		t.Errorf("figure-eight trap %q, want golden %q", got, want)
	}
	// The theta's first trap depends on the order successors are
	// searched in: ascending channel IDs close the ring through switch 4,
	// the adjacency's order the ring through switch 2. Decide sorts.
	dec, err = exists.Decide(directedTheta(), exists.Options{})
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if got, want := trapString(dec.Trap), "0>2@0-4 2>10@0-5 10>12@4-0 12>0@4-1"; got != want {
		t.Errorf("theta trap %q, want golden %q", got, want)
	}
	golden := map[int64]string{
		0:  "0>2@0-2 2>4@0-3 4>6@1-0 6>0@2-1",                                                 // oneway-ring-4
		2:  "0>2@0-2 2>4@0-3 4>6@1-0 6>0@2-1",                                                 // oneway-ring-4
		3:  "0>2@0-2 2>4@0-3 4>6@0-4 6>8@0-5 8>10@0-6 10>12@0-7 12>14@0-8 14>16@1-0 16>0@2-1", // oneway-ring-9
		5:  "0>2@0-2 2>4@0-3 4>6@0-4 6>8@0-5 8>10@0-6 10>12@0-7 12>14@1-0 14>0@2-1",           // oneway-ring-8
		6:  "0>2@0-2 2>4@0-3 4>6@0-4 6>8@0-5 8>10@0-6 10>12@0-7 12>14@0-8 14>16@1-0 16>0@2-1", // oneway-ring-9
		7:  "0>2@0-2 2>4@0-3 4>6@1-0 6>0@2-1",                                                 // oneway-ring-4
		8:  "0>2@0-2 2>4@0-3 4>6@1-0 6>0@2-1",                                                 // oneway-ring-4
		10: "0>2@0-2 2>4@0-3 4>6@0-4 6>8@0-5 8>10@0-6 10>12@0-7 12>14@1-0 14>0@2-1",           // oneway-ring-8
		11: "0>2@0-2 2>4@0-3 4>6@0-4 6>8@0-5 8>10@0-6 10>12@0-7 12>14@0-8 14>16@1-0 16>0@2-1", // oneway-ring-9
		13: "0>2@0-2 2>4@0-3 4>6@0-4 6>8@0-5 8>10@0-6 10>12@1-0 12>0@2-1",                     // oneway-ring-7
	}
	found := 0
	for seed := int64(0); found < len(golden); seed++ {
		tp := stress.Generate(stress.ClassOneWay, rand.New(rand.NewSource(seed)))
		dec, err := exists.Decide(tp.Net, exists.Options{})
		if err != nil {
			t.Fatalf("seed %d (%s): Decide: %v", seed, tp.Name, err)
		}
		want, refuted := golden[seed]
		if (dec.Trap != nil) != refuted {
			t.Fatalf("seed %d (%s): trap %v, want a trap only on the golden seeds", seed, tp.Name, dec.Trap)
		}
		if !refuted {
			continue
		}
		found++
		if got := trapString(dec.Trap); got != want {
			t.Errorf("seed %d (%s): trap %q, want golden %q", seed, tp.Name, got, want)
		}
	}
}
