package oracle_test

// Cast-side oracle tests: mutation tests that corrupt known-good cast
// trees and require the oracle to refute them with concrete, canonical
// witnesses, plus coverage of the structural CastError taxonomy.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mcast"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestCastMutationExtraEdgeClosesCycle is the cast mutation test: build
// a proper multicast tree on a k=1 mesh with mcast.Build, certify it,
// then inject ONE extra cast out-channel — the reverse of the tree's
// own trunk — which closes a two-channel dependency cycle. The oracle
// must refute the mutant with exactly that witness (canonicalized to
// start at the smaller channel), not with a structural complaint.
func TestCastMutationExtraEdgeClosesCycle(t *testing.T) {
	tp := topology.Mesh2D(2, 1, 1)
	net := tp.Net
	terms := net.Terminals()
	res, err := nueEngine(1).Route(net, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	cast, _, err := mcast.Build(net, res, []mcast.Group{{ID: 1, Members: terms}})
	if err != nil {
		t.Fatal(err)
	}
	res.Cast = cast
	if _, err := oracle.Certify(net, res, oracle.Options{}); err != nil {
		t.Fatalf("baseline cast table must certify before mutating: %v", err)
	}

	// The trunk: the one switch-to-switch channel the tree crosses.
	g := cast.Group(1)
	var trunk graph.ChannelID = graph.NoChannel
	for _, sw := range net.Switches() {
		for _, c := range g.Outs(sw) {
			if net.IsSwitch(net.Channel(c).To) {
				trunk = c
			}
		}
	}
	if trunk == graph.NoChannel {
		t.Fatal("tree has no switch-to-switch trunk (members fell back to UBM?)")
	}
	back := net.Channel(trunk).Reverse
	g.AddOut(net.Channel(trunk).To, back)

	_, err = oracle.Certify(net, res, oracle.Options{})
	var cyc *oracle.CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("mutant not refuted with a cycle witness: %v", err)
	}
	if werr := oracle.ValidateWitness(net, cyc.Witness); werr != nil {
		t.Fatalf("witness fails validation: %v", werr)
	}
	// The exact canonical witness: the two trunk channels on VL 0,
	// starting at the smaller ChannelID, both edges plain T-type.
	lo, hi := trunk, back
	if hi < lo {
		lo, hi = hi, lo
	}
	want := []oracle.Dep{
		{Channel: lo, From: net.Channel(lo).From, To: net.Channel(lo).To, VL: 0},
		{Channel: hi, From: net.Channel(hi).From, To: net.Channel(hi).To, VL: 0},
	}
	if !reflect.DeepEqual(cyc.Witness, want) {
		t.Fatalf("witness = %v, want exactly %v", cyc.Witness, want)
	}

	// Canonicalization: a second run must reproduce the witness byte for
	// byte.
	_, err2 := oracle.Certify(net, res, oracle.Options{})
	var cyc2 *oracle.CycleError
	if !errors.As(err2, &cyc2) {
		t.Fatalf("second run not refuted: %v", err2)
	}
	if err.Error() != err2.Error() {
		t.Fatalf("witness not deterministic:\n%v\n%v", err, err2)
	}

	// Removing the injected edge restores certifiability.
	g.RemoveOut(net.Channel(trunk).To, back)
	if _, err := oracle.Certify(net, res, oracle.Options{}); err != nil {
		t.Fatalf("restored table no longer certifies: %v", err)
	}
}

// rotatedCastRing builds the deliberately-cyclic fixture the stress
// harness also uses: cast path-trees rotated clockwise around a ring of
// switches. Each tree is acyclic; the union of their T-type
// dependencies is the full ring cycle.
func rotatedCastRing(t *testing.T, n int) (*graph.Network, *routing.Result) {
	t.Helper()
	tp := topology.Ring(n, 1)
	net := tp.Net
	res, err := nueEngine(2).Route(net, net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	switches := net.Switches()
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
	termAt := func(sw graph.NodeID) graph.NodeID {
		for _, m := range net.Terminals() {
			if net.TerminalSwitch(m) == sw {
				return m
			}
		}
		t.Fatalf("no terminal at switch %d", sw)
		return graph.NoNode
	}
	cast := routing.NewCastTable()
	for i := range order {
		s0, s1, s2 := order[i], order[(i+1)%len(order)], order[(i+2)%len(order)]
		src, dst := termAt(s0), termAt(s2)
		g := &routing.CastGroup{ID: i + 1, Source: src,
			Members:   []graph.NodeID{src, dst},
			Receivers: []graph.NodeID{dst}}
		g.AddOut(s0, hop[s0])
		g.AddOut(s1, hop[s1])
		for _, c := range net.Out(s2) {
			if net.Channel(c).To == dst {
				g.AddOut(s2, c)
			}
		}
		cast.Add(g)
	}
	res.Cast = cast
	return net, res
}

// TestCastRefutesRotatedRing: individually-acyclic cast trees whose
// union is cyclic must be refuted over the UNION with a valid witness —
// the defect no per-tree check can see.
func TestCastRefutesRotatedRing(t *testing.T) {
	net, res := rotatedCastRing(t, 4)
	_, err := oracle.Certify(net, res, oracle.Options{})
	var cyc *oracle.CycleError
	if !errors.As(err, &cyc) {
		t.Fatalf("rotated cast ring not refuted with a cycle: %v", err)
	}
	if werr := oracle.ValidateWitness(net, cyc.Witness); werr != nil {
		t.Fatalf("witness fails validation: %v", werr)
	}
	if len(cyc.Witness) != 4 {
		t.Errorf("witness length = %d, want the 4 ring channels", len(cyc.Witness))
	}
	// Canonical start: no vertex in the cycle is smaller than the first.
	first := cyc.Witness[0]
	for _, d := range cyc.Witness[1:] {
		if d.Channel < first.Channel || (d.Channel == first.Channel && d.VL < first.VL) {
			t.Errorf("witness not canonical: starts at ch%d@%d but contains ch%d@%d",
				first.Channel, first.VL, d.Channel, d.VL)
		}
	}
}

// TestCastStructuralErrors drives the deferred CastError taxonomy:
// structural defects that do NOT close a dependency cycle must still be
// reported — after the Tarjan pass stays clean.
func TestCastStructuralErrors(t *testing.T) {
	tp := topology.Mesh2D(3, 1, 1)
	net := tp.Net
	terms := net.Terminals()
	base, err := nueEngine(3).Route(net, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *routing.CastGroup {
		cast, _, err := mcast.Build(net, base, []mcast.Group{{ID: 1, Members: terms}})
		if err != nil {
			t.Fatal(err)
		}
		return cast.Group(1)
	}
	certify := func(g *routing.CastGroup) error {
		res := *base
		cast := routing.NewCastTable()
		cast.Add(g)
		res.Cast = cast
		_, err := oracle.Certify(net, &res, oracle.Options{})
		return err
	}

	if err := certify(build()); err != nil {
		t.Fatalf("baseline tree must certify: %v", err)
	}

	t.Run("missed receiver", func(t *testing.T) {
		g := build()
		// Cut the ejection to one receiver: the member is still owed.
		m := g.Receivers[len(g.Receivers)-1]
		g.RemoveOut(net.TerminalSwitch(m), net.Channel(net.Out(m)[0]).Reverse)
		var ce *oracle.CastError
		if err := certify(g); !errors.As(err, &ce) || ce.Member != m {
			t.Fatalf("want CastError naming member %d, got %v", m, err)
		}
	})

	t.Run("delivery to non-receiver", func(t *testing.T) {
		g := build()
		m := g.Receivers[len(g.Receivers)-1]
		g.Receivers = g.Receivers[:len(g.Receivers)-1]
		g.UBM = append(g.UBM, m) // still owed, but via a leg — the tree copy is rogue
		var ce *oracle.CastError
		if err := certify(g); !errors.As(err, &ce) || ce.Member != m {
			t.Fatalf("want CastError naming member %d, got %v", m, err)
		}
	})

	t.Run("vacuous unrouted", func(t *testing.T) {
		g := build()
		m := g.Receivers[len(g.Receivers)-1]
		g.Receivers = g.Receivers[:len(g.Receivers)-1]
		g.RemoveOut(net.TerminalSwitch(m), net.Channel(net.Out(m)[0]).Reverse)
		g.Unrouted = append(g.Unrouted, m) // but m is connected!
		var ce *oracle.CastError
		if err := certify(g); !errors.As(err, &ce) || ce.Member != m {
			t.Fatalf("want CastError naming member %d, got %v", m, err)
		}
	})

	t.Run("budget violation", func(t *testing.T) {
		g := build()
		g.SL = 5 // far beyond the single-layer budget
		var be *oracle.BudgetError
		if err := certify(g); !errors.As(err, &be) {
			t.Fatalf("want BudgetError for SL 5 on a 1-layer routing, got %v", err)
		}
	})
}

// TestCastUBMLegsJoinUnion: UBM legs ride the unicast tables, and their
// dependencies must enter the union graph — a leg that crosses a failed
// channel is a hard error.
func TestCastUBMLegsJoinUnion(t *testing.T) {
	tp := topology.Ring(5, 1)
	net := tp.Net
	terms := net.Terminals()
	res, err := nueEngine(4).Route(net, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := &routing.CastGroup{ID: 1, Source: terms[0],
		Members: []graph.NodeID{terms[0], terms[2]},
		UBM:     []graph.NodeID{terms[2]}}
	cast := routing.NewCastTable()
	cast.Add(g)
	res.Cast = cast
	cert, err := oracle.Certify(net, res, oracle.Options{})
	if err != nil {
		t.Fatalf("UBM-only group must certify: %v", err)
	}
	if cert.CastUBM != 1 || cert.CastGroups != 1 {
		t.Errorf("certificate %+v: want 1 group, 1 UBM leg", *cert)
	}
}
