package stress

import (
	"errors"

	"repro/internal/engines"
	"repro/internal/graph"
	"repro/internal/mcast"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/topology"
)

// McastReport summarizes the multicast sub-trial: seeded random groups
// were routed as cast trees inside Nue's complete CDG and the combined
// unicast+cast configuration certified, then a deliberately-cyclic cast
// table (path-trees rotated around a switch cycle, each tree acyclic on
// its own) was offered to the oracle, which must refute it with a valid
// witness.
type McastReport struct {
	// Groups is the routed group count; TreeEdges the committed cast
	// out-channels; UBMMembers members served over unicast legs.
	Groups, TreeEdges, UBMMembers int
	// CastEdges counts the cast dependency edges admitted into the
	// oracle's union graph for the certified table.
	CastEdges int
	// AdversarialRefuted is true when the rotated cyclic table was
	// refuted with a validated witness; AdversarialSkipped when the
	// topology offers no usable switch cycle (trees, disconnected
	// terminals) and the negative control could not be built.
	AdversarialRefuted, AdversarialSkipped bool
	// Witness is the formatted refutation cycle of the adversarial run.
	Witness string
}

// runMcast executes the multicast sub-trial on the generated topology:
// Nue routes the unicast fabric, mcast.Build grows the trees, and the
// oracle adjudicates both the honest table (must certify) and the
// rotated cyclic one (must be refuted).
func (tr *Trial) runMcast(tp *topology.Topology, vcs int) *McastReport {
	rep := &McastReport{}
	net := tp.Net
	dests := net.Terminals()
	if len(dests) == 0 {
		rep.AdversarialSkipped = true
		return rep
	}
	res, err := engines.Nue(tr.Config.Seed, tr.Config.Workers).Route(net, dests, vcs)
	if err != nil {
		// Nue's existence guarantee: failing to route is a hard failure
		// already raised by the differential roster; don't double-report.
		rep.AdversarialSkipped = true
		return rep
	}

	size := tr.Config.McastSize
	if size == 0 {
		size = 4
	}
	groups := mcast.SeededGroups(tr.Config.Seed, net, tr.Config.McastGroups, size)
	cast, st, err := mcast.Build(net, res, groups, mcast.Options{})
	if err != nil {
		tr.fail("mcast build failed on %s (%d VCs): %v", tr.Topology, vcs, err)
		return rep
	}
	rep.Groups = st.Groups
	rep.TreeEdges = st.TreeEdges
	rep.UBMMembers = st.UBMMembers
	res.Cast = cast
	cert, err := oracle.Certify(net, res, oracle.Options{})
	if err != nil {
		tr.fail("oracle refused mcast-built trees on %s (%d VCs): %v", tr.Topology, vcs, err)
		return rep
	}
	rep.CastEdges = cert.CastEdges

	// The negative control: rotated path-trees whose union of T-type
	// dependencies is a switch cycle. Each tree is acyclic — only the
	// union certification can catch this.
	evil := rotatedCycleTable(net, findSwitchCycle(net))
	if evil == nil {
		rep.AdversarialSkipped = true
		return rep
	}
	res.Cast = evil
	_, err = oracle.Certify(net, res, oracle.Options{})
	var cyc *oracle.CycleError
	if !errors.As(err, &cyc) {
		tr.fail("oracle passed a deliberately-cyclic cast table on %s (%d VCs): %v — the cast checker is vacuous",
			tr.Topology, vcs, err)
		return rep
	}
	if werr := oracle.ValidateWitness(net, cyc.Witness); werr != nil {
		tr.fail("oracle refuted the cyclic cast table on %s with an invalid witness: %v", tr.Topology, werr)
		return rep
	}
	rep.AdversarialRefuted = true
	rep.Witness = formatWitness(cyc.Witness)
	return rep
}

// findSwitchCycle returns the directed channels of a simple cycle of at
// least three distinct switches over non-failed switch-switch links
// (nil when the surviving switch graph is a forest). Channel i leads
// from switch i to switch i+1 of the cycle.
func findSwitchCycle(net *graph.Network) []graph.ChannelID {
	state := make(map[graph.NodeID]int) // 0 new, 1 on stack, 2 done
	var nodes []graph.NodeID
	var chans []graph.ChannelID // chans[i] enters nodes[i] (NoChannel at the root)
	var cycle []graph.ChannelID
	var dfs func(u graph.NodeID, in graph.ChannelID) bool
	dfs = func(u graph.NodeID, in graph.ChannelID) bool {
		state[u] = 1
		nodes = append(nodes, u)
		chans = append(chans, in)
		for _, c := range net.Out(u) {
			ch := net.Channel(c)
			if ch.Failed || !net.IsSwitch(ch.To) {
				continue
			}
			// Don't walk straight back over the entering link; parallel
			// links still close (length-2) cycles, rejected below.
			if in != graph.NoChannel && c == net.Channel(in).Reverse {
				continue
			}
			switch state[ch.To] {
			case 0:
				if dfs(ch.To, c) {
					return true
				}
			case 1:
				i := len(nodes) - 1
				for nodes[i] != ch.To {
					i--
				}
				if len(nodes)-i >= 3 {
					cycle = append(cycle[:0], chans[i+1:]...)
					cycle = append(cycle, c)
					return true
				}
			}
		}
		state[u] = 2
		nodes = nodes[:len(nodes)-1]
		chans = chans[:len(chans)-1]
		return false
	}
	for _, s := range net.Switches() {
		if state[s] == 0 && net.Degree(s) > 0 {
			if dfs(s, graph.NoChannel) {
				return cycle
			}
		}
	}
	return nil
}

// rotatedCycleTable builds the deliberately-cyclic cast table over a
// directed switch cycle: group i's path-tree runs source(s_i) -> s_{i+1}
// -> s_{i+2} -> receiver, so tree i contributes the T-type dependency
// cycle[i] -> cycle[i+1] and the union of all groups closes the full
// ring. Returns nil when any cycle switch lacks a connected terminal.
func rotatedCycleTable(net *graph.Network, cycle []graph.ChannelID) *routing.CastTable {
	if cycle == nil {
		return nil
	}
	n := len(cycle)
	sw := make([]graph.NodeID, n)
	term := make([]graph.NodeID, n)
	for i, c := range cycle {
		sw[i] = net.Channel(c).From
		term[i] = graph.NoNode
		for _, t := range net.Terminals() {
			if net.Degree(t) > 0 && net.TerminalSwitch(t) == sw[i] {
				term[i] = t
				break
			}
		}
		if term[i] == graph.NoNode {
			return nil
		}
	}
	cast := routing.NewCastTable()
	for i := 0; i < n; i++ {
		src, dst := term[i], term[(i+2)%n]
		g := &routing.CastGroup{ID: i + 1, Source: src,
			Members:   []graph.NodeID{src, dst},
			Receivers: []graph.NodeID{dst}}
		g.AddOut(sw[i], cycle[i])
		g.AddOut(sw[(i+1)%n], cycle[(i+1)%n])
		for _, c := range net.Out(sw[(i+2)%n]) {
			if net.Channel(c).To == dst {
				g.AddOut(sw[(i+2)%n], c)
				break
			}
		}
		cast.Add(g)
	}
	return cast
}
