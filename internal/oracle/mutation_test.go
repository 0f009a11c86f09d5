package oracle_test

// Mutation tests for the oracle itself: corrupt a known-good Nue table
// in controlled ways and require the oracle to report exactly the
// injected defect. A checker that waves through corrupted tables is
// vacuous — these tests are the guard the cross-check layer relies on.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// mutateEntry swaps one next hop, runs fn, and restores the entry.
func mutateEntry(t *routing.Table, sw, dest graph.NodeID, c graph.ChannelID, fn func()) {
	old := t.Next(sw, dest)
	t.Set(sw, dest, c)
	fn()
	t.Set(sw, dest, old)
}

// TestMutationSwapClosesCycle swaps single next hops of a certified Nue
// routing on a k=1 torus (the escape-dominated regime, where the
// dependency slack is smallest) until one swap closes a dependency
// cycle. The oracle must (a) refute at least one such mutation, (b)
// emit a witness that is a genuine closed dependency chain, and (c)
// agree with internal/routing/verify on every refuted mutant.
func TestMutationSwapClosesCycle(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 1, 1)
	net := tp.Net
	res, err := nueEngine(1).Route(net, net.Terminals(), 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("baseline must certify before mutating: %v", err)
	}

	cycles, loops, clean := 0, 0, 0
	for _, sw := range net.Switches() {
		for _, d := range res.Table.Dests() {
			cur := res.Table.Next(sw, d)
			if cur == graph.NoChannel {
				continue
			}
			for _, alt := range net.Out(sw) {
				if alt == cur || net.IsTerminal(net.Channel(alt).To) {
					continue
				}
				mutateEntry(res.Table, sw, d, alt, func() {
					_, oerr := oracle.Certify(net, res, oracle.Options{MaxVCs: 1})
					_, verr := verify.Check(net, res, nil)
					if (oerr == nil) != (verr == nil) {
						t.Fatalf("oracle and verify disagree on mutant (sw=%d dest=%d alt=%d): oracle=%v verify=%v",
							sw, d, alt, oerr, verr)
					}
					var cyc *oracle.CycleError
					switch {
					case errors.As(oerr, &cyc):
						cycles++
						if werr := oracle.ValidateWitness(net, cyc.Witness); werr != nil {
							t.Fatalf("invalid witness for mutant (sw=%d dest=%d alt=%d): %v", sw, d, alt, werr)
						}
					case oerr != nil:
						loops++ // forwarding loop or stall: also caught, differently typed
					default:
						clean++
					}
				})
			}
		}
	}
	t.Logf("mutants: %d cycle-refuted, %d otherwise-refuted, %d benign", cycles, loops, clean)
	if cycles == 0 {
		t.Fatal("no single next-hop swap produced a dependency-cycle refutation: oracle cycle search is under-sensitive")
	}
}

// TestMutationDropsEntry removes a single table entry on a path the
// walker must take and requires the oracle to name exactly that
// unreachable pair: the walk stalls at the mutated switch, toward the
// mutated destination.
func TestMutationDropsEntry(t *testing.T) {
	tp := topology.Ring(6, 1)
	net := tp.Net
	res, err := nueEngine(2).Route(net, net.Terminals(), 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("baseline must certify before mutating: %v", err)
	}

	// Pick a (switch, destination) whose entry is set and whose switch
	// is not the destination's attachment point (so a path is owed
	// through it from at least the switch's own terminal).
	var sw, dest graph.NodeID = graph.NoNode, graph.NoNode
	for _, d := range res.Table.Dests() {
		att := net.TerminalSwitch(d)
		for _, s := range net.Switches() {
			if s != att && res.Table.Next(s, d) != graph.NoChannel {
				sw, dest = s, d
				break
			}
		}
		if sw != graph.NoNode {
			break
		}
	}
	if sw == graph.NoNode {
		t.Fatal("no droppable entry found")
	}

	mutateEntry(res.Table, sw, dest, graph.NoChannel, func() {
		_, oerr := oracle.Certify(net, res, oracle.Options{MaxVCs: 1})
		var unreach *oracle.UnreachableError
		if !errors.As(oerr, &unreach) {
			t.Fatalf("want UnreachableError, got %v", oerr)
		}
		if unreach.At != sw || unreach.Dst != dest {
			t.Fatalf("oracle blamed (at=%d, dst=%d), mutation was (at=%d, dst=%d)",
				unreach.At, unreach.Dst, sw, dest)
		}
		// Differential: the in-tree verifier must agree the mutant is bad.
		if _, verr := verify.Check(net, res, nil); verr == nil {
			t.Fatal("verify passed a table with a dropped entry")
		}
	})

	// Restoration sanity: the unmutated table still certifies.
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("restored table no longer certifies: %v", err)
	}
}

// TestMutationDependencyTriangle re-routes three same-layer destinations
// around a directed switch triangle s0 -> s1 -> s2 -> s0 of one
// Dragonfly group, so that each destination's walk stays loop-free (the
// route-level checks pass) while their combined channel dependencies
// close a cycle — the class of fault only the CDG cycle search refutes.
// Both certifiers must refute it, and the oracle's witness must validate
// and touch the injected triangle.
func TestMutationDependencyTriangle(t *testing.T) {
	tp := topology.Dragonfly(4, 2, 2, 9)
	net := tp.Net
	// One virtual layer puts every destination in the same CDG, so the
	// triangle's three destinations are guaranteed to share a layer.
	res, err := nueEngine(1).Route(net, net.Terminals(), 1)
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	if _, err := oracle.Certify(net, res, oracle.Options{MaxVCs: 1}); err != nil {
		t.Fatalf("baseline must certify before mutating: %v", err)
	}

	// Three switches of group g0 (locally all-to-all, named g0-s<i>) and
	// the terminal attached to each.
	var ring [3]graph.NodeID
	k := 0
	for _, sw := range net.Switches() {
		if k < len(ring) && strings.HasPrefix(net.Node(sw).Name, "g0-") {
			ring[k] = sw
			k++
		}
	}
	if k < len(ring) {
		t.Fatalf("group g0 has %d switches, want 3", k)
	}
	chanTo := func(u, v graph.NodeID) graph.ChannelID {
		for _, c := range net.Out(u) {
			if net.Channel(c).To == v {
				return c
			}
		}
		t.Fatalf("no channel %d -> %d", u, v)
		return graph.NoChannel
	}
	terminalOf := func(sw graph.NodeID) graph.NodeID {
		for _, c := range net.Out(sw) {
			if net.IsTerminal(net.Channel(c).To) {
				return net.Channel(c).To
			}
		}
		t.Fatalf("switch %d has no terminal", sw)
		return graph.NoNode
	}
	// rdst[i] is served over the triangle edge leaving ring[i]: the
	// destination attached to ring[(i+2)%3].
	var rdst [3]graph.NodeID
	for i := range ring {
		rdst[i] = terminalOf(ring[(i+2)%3])
	}
	e01, e12, e20 := chanTo(ring[0], ring[1]), chanTo(ring[1], ring[2]), chanTo(ring[2], ring[0])

	// Each destination takes two triangle hops and exits to its terminal:
	// loop-free walks, cyclic dependencies.
	tb := res.Table
	tb.Set(ring[0], rdst[0], e01) // dst at ring[2]: s0 -> s1 -> s2 -> t
	tb.Set(ring[1], rdst[0], e12)
	tb.Set(ring[1], rdst[1], e12) // dst at ring[0]: s1 -> s2 -> s0 -> t
	tb.Set(ring[2], rdst[1], e20)
	tb.Set(ring[2], rdst[2], e20) // dst at ring[1]: s2 -> s0 -> s1 -> t
	tb.Set(ring[0], rdst[2], e01)
	tb.Set(ring[2], rdst[0], chanTo(ring[2], rdst[0]))
	tb.Set(ring[0], rdst[1], chanTo(ring[0], rdst[1]))
	tb.Set(ring[1], rdst[2], chanTo(ring[1], rdst[2]))

	_, oerr := oracle.Certify(net, res, oracle.Options{})
	var ce *oracle.CycleError
	if !errors.As(oerr, &ce) {
		t.Fatalf("oracle: %T (%v), want a dependency-cycle witness", oerr, oerr)
	}
	if err := oracle.ValidateWitness(net, ce.Witness); err != nil {
		t.Fatalf("witness does not validate: %v", err)
	}
	onTriangle := false
	for _, d := range ce.Witness {
		if d.Channel == e01 || d.Channel == e12 || d.Channel == e20 {
			onTriangle = true
		}
	}
	if !onTriangle {
		t.Fatalf("witness %v does not touch the injected triangle", ce.Witness)
	}
	if _, verr := verify.Check(net, res, nil); verr == nil {
		t.Fatal("verify passed the dependency triangle")
	}
}
