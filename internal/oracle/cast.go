package oracle

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/routing"
)

// This file is the cast half of the trusted base: an independent walker
// over routing.CastTable that re-derives the multicast dependency set
// from the published trees alone — T-type edges (tree in-channel to
// each branch output) and V-type edges (consecutive branch outputs of
// one switch, in the ascending-ID reservation order the simulator
// implements) — and feeds it into the same depGraph the unicast walk
// fills. Deadlock freedom is then decided over the UNION by one Tarjan
// pass; structural tree violations are collected but deferred, so a
// deliberately-cyclic cast tree is refuted with a concrete witness
// cycle rather than a vague shape complaint.

// walkCast walks every cast group of the result. It returns a deferred
// structural error (reported only if the union dependency graph turns
// out acyclic) and a hard error (malformed beyond walking: failed
// channels, budget violations, broken UBM legs).
func walkCast(net *graph.Network, res *routing.Result, cert *Certificate, dg *depGraph) (deferred, hard error) {
	// UBM legs are single pairs to unrelated members: no memo, every leg
	// is walked to its end.
	w := newTableWalker(net, res, cert, dg, false)
	reach := make([]int32, net.NumNodes())
	var queue []graph.NodeID
	keep := func(err error) {
		if deferred == nil {
			deferred = err
		}
	}
	for _, id := range res.Cast.IDs() {
		g := res.Cast.Group(id)
		cert.CastGroups++
		owed := len(g.Receivers) + len(g.UBM)
		if owed == 0 && g.TreeEdges() == 0 {
			continue
		}
		if g.Source == graph.NoNode || len(net.Out(g.Source)) == 0 {
			keep(&CastError{Group: id, Member: graph.NoNode, At: g.Source,
				Reason: "source is disconnected but members are owed delivery"})
			continue
		}
		if err := walkCastTree(net, res, g, cert, dg, keep); err != nil {
			return deferred, err
		}
		// UBM legs ride the unicast routing; walk them with the unicast
		// walker so their dependencies join the union too.
		for _, m := range g.UBM {
			if m == g.Source {
				return deferred, &CastError{Group: id, Member: m, At: graph.NoNode,
					Reason: "source listed as its own UBM member"}
			}
			var err error
			if p := explicitPath(res, g.Source, m); p != nil {
				_, err = walkExplicit(net, res, g.Source, m, p, dg)
			} else {
				_, err = w.walk(g.Source, m)
			}
			if err != nil {
				return deferred, fmt.Errorf("oracle: cast group %d UBM leg to %d: %w", id, m, err)
			}
			cert.CastUBM++
		}
		// Vacuity check: members the table writes off as unrouted must
		// really be cut off — an in-component member owed nothing is an
		// incompleteness bug, not a fault artifact.
		if len(g.Unrouted) > 0 {
			sweepComponent(net, g.Source, reach, &queue)
			for _, m := range g.Unrouted {
				if reach[m] == 1 {
					keep(&CastError{Group: id, Member: m, At: graph.NoNode,
						Reason: "member marked unrouted but shares a component with the source"})
				}
			}
		}
	}
	return deferred, nil
}

// sweepComponent marks src's component in reach with 1 (resetting the
// scratch each call).
func sweepComponent(net *graph.Network, src graph.NodeID, reach []int32, queue *[]graph.NodeID) {
	for i := range reach {
		reach[i] = 0
	}
	q := (*queue)[:0]
	q = append(q, src)
	reach[src] = 1
	for head := 0; head < len(q); head++ {
		for _, c := range net.Out(q[head]) {
			if to := net.Channel(c).To; reach[to] != 1 {
				reach[to] = 1
				q = append(q, to)
			}
		}
	}
	*queue = q
}

// walkCastTree traverses one group's cast graph edge by edge from the
// source's injection channel, recording T- and V-type dependencies.
// Every out-channel is traversed exactly once, so a cyclic cast graph
// still terminates — and contributes exactly the dependency edges whose
// cycle the Tarjan pass will find. Structural violations (reconvergence,
// deliveries to non-members, missed receivers) go through keep.
func walkCastTree(net *graph.Network, res *routing.Result, g *routing.CastGroup, cert *Certificate, dg *depGraph, keep func(error)) error {
	sl := g.SL
	root := g.Source
	var inj graph.ChannelID = graph.NoChannel
	if net.IsTerminal(g.Source) {
		inj = net.Out(g.Source)[0]
		root = net.Channel(inj).To
	}
	if !net.IsSwitch(root) {
		return &CastError{Group: g.ID, Member: graph.NoNode, At: root,
			Reason: "source does not attach to a switch"}
	}
	if inj != graph.NoChannel {
		if _, err := castLane(res, g, sl, inj, dg.layers); err != nil {
			return err
		}
	}

	type arrival struct {
		in graph.ChannelID // NoChannel only for the root bootstrap
		sw graph.NodeID
	}
	queue := []arrival{{in: inj, sw: root}}
	seenOut := make(map[graph.ChannelID]bool)
	arrivals := make(map[graph.NodeID]int)
	delivered := make(map[graph.NodeID]int)
	arrivals[root]++
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		outs := g.Outs(a.sw)
		if len(outs) == 0 && head == 0 {
			break // legitimately empty tree (all members UBM or unrouted)
		}
		var prevOut graph.ChannelID = graph.NoChannel
		var prevVL uint8
		for _, c := range outs {
			ch := net.Channel(c)
			if ch.Failed {
				return &CastError{Group: g.ID, Member: graph.NoNode, At: a.sw,
					Reason: fmt.Sprintf("tree uses failed channel %d", c)}
			}
			if ch.From != a.sw {
				return &CastError{Group: g.ID, Member: graph.NoNode, At: a.sw,
					Reason: fmt.Sprintf("out-channel %d does not leave the switch (it is %d->%d)", c, ch.From, ch.To)}
			}
			vl, err := castLane(res, g, sl, c, dg.layers)
			if err != nil {
				return err
			}
			// T-type: the packet buffered on the in-channel wants every
			// branch output.
			if a.in != graph.NoChannel {
				inVL, err := castLane(res, g, sl, a.in, dg.layers)
				if err != nil {
					return err
				}
				dg.addTyped(a.in, inVL, c, vl, false)
			}
			// V-type: outputs are reserved in ascending ChannelID order;
			// the holder of the previous sibling waits on this one.
			if prevOut != graph.NoChannel {
				dg.addTyped(prevOut, prevVL, c, vl, true)
				cert.CastVDeps++
			}
			prevOut, prevVL = c, vl
			cert.CastEdges++
			if net.IsTerminal(ch.To) {
				delivered[ch.To]++
				continue
			}
			if !seenOut[c] {
				seenOut[c] = true
				arrivals[ch.To]++
				queue = append(queue, arrival{in: c, sw: ch.To})
			}
		}
	}

	// Structural pass (deferred behind the Tarjan verdict).
	for _, sw := range sortedNodes(arrivals) {
		if arrivals[sw] > 1 {
			keep(&CastError{Group: g.ID, Member: graph.NoNode, At: sw,
				Reason: fmt.Sprintf("cast graph reaches switch %d times (not a tree)", arrivals[sw])})
		}
	}
	isReceiver := make(map[graph.NodeID]bool, len(g.Receivers))
	for _, m := range g.Receivers {
		isReceiver[m] = true
	}
	for _, t := range sortedNodes(delivered) {
		switch {
		case !isReceiver[t]:
			keep(&CastError{Group: g.ID, Member: t, At: graph.NoNode,
				Reason: "tree delivers to a terminal that is not a receiver"})
		case delivered[t] > 1:
			keep(&CastError{Group: g.ID, Member: t, At: graph.NoNode,
				Reason: fmt.Sprintf("tree delivers to the receiver %d times", delivered[t])})
		}
	}
	for _, m := range g.Receivers {
		if delivered[m] == 0 {
			keep(&CastError{Group: g.ID, Member: m, At: graph.NoNode,
				Reason: "receiver never reached by the tree"})
		}
		cert.CastReceivers++
	}
	return nil
}

// sortedNodes returns the map's keys in ascending order (deterministic
// structural error selection).
func sortedNodes(m map[graph.NodeID]int) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// castLane resolves the virtual lane of cast traffic with service level
// sl on channel c against the layer budget.
func castLane(res *routing.Result, g *routing.CastGroup, sl uint8, c graph.ChannelID, layers int) (uint8, error) {
	vl := res.VL(sl, c)
	if int(vl) >= layers {
		return 0, &BudgetError{Used: int(vl) + 1, Budget: layers,
			Detail: fmt.Sprintf("cast group %d occupies VL %d on channel %d", g.ID, vl, c)}
	}
	return vl, nil
}
