package fabric

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/routing"
)

// State is the mutable bookkeeping half of the Manager: the private
// working network and the desired link/switch up-down state. It carries
// no epoch ownership — no snapshots, no locks, no publication. Outside the
// Manager it serves as a churn generator's shadow of the fabric
// (NewState, RandomEvent/RandomSwitchEvent, Mutate). All methods must
// run under the owner's event serialization.
type State struct {
	// working is the controller's private mutable network; published
	// snapshots carry clones of it.
	working *graph.Network
	// linkFailed marks duplex links failed on their own (keyed by the
	// canonical directed half); nodeDown marks failed switches. A link is
	// down iff it failed explicitly or either endpoint is down, so a
	// switch rejoining does not resurrect a link that also failed on its
	// own.
	linkFailed map[graph.ChannelID]bool
	nodeDown   map[graph.NodeID]bool
	// links lists, per node, the canonical duplex links attached to it
	// (independent of current failed state); never written after
	// NewState, so a restored state shares it.
	links [][]graph.ChannelID
}

// NewState adopts a clone of net as the working network. Links already
// failed in the input count as explicit failures, so a later join can
// restore them.
func NewState(net *graph.Network) *State {
	s := &State{
		working:    net.Clone(),
		linkFailed: make(map[graph.ChannelID]bool),
		nodeDown:   make(map[graph.NodeID]bool),
		links:      make([][]graph.ChannelID, net.NumNodes()),
	}
	for c := 0; c < s.working.NumChannels(); c++ {
		id := graph.ChannelID(c)
		if canonical(s.working, id) != id {
			continue
		}
		ch := s.working.Channel(id)
		s.links[ch.From] = append(s.links[ch.From], id)
		s.links[ch.To] = append(s.links[ch.To], id)
		if ch.Failed {
			s.linkFailed[id] = true
		}
	}
	return s
}

// bookkeeping returns deep copies of the explicit link-failed and
// switch-down maps (see Candidate.Bookkeeping).
func (s *State) bookkeeping() (linkFailed map[graph.ChannelID]bool, nodeDown map[graph.NodeID]bool) {
	return maps.Clone(s.linkFailed), maps.Clone(s.nodeDown)
}

// restoreState rebuilds a State from a committed epoch: the epoch's
// network (cloned) plus the replicated bookkeeping maps, which REPLACE
// the explicit-failure inference NewState makes from the network (a link
// that is down only because its switch is down must not be recorded as
// explicitly failed, or a later switch join would strand it). The links
// per node depend on the fabric's IDs alone, so they are prev's.
func restoreState(prev *State, net *graph.Network, linkFailed map[graph.ChannelID]bool, nodeDown map[graph.NodeID]bool) *State {
	s := &State{
		working:    net.Clone(),
		linkFailed: make(map[graph.ChannelID]bool, len(linkFailed)),
		nodeDown:   make(map[graph.NodeID]bool, len(nodeDown)),
		links:      prev.links,
	}
	maps.Copy(s.linkFailed, linkFailed)
	maps.Copy(s.nodeDown, nodeDown)
	return s
}

// Mutate applies the structural change of ev to the working network and
// returns the directed channels whose failed state flipped (empty for
// no-ops), as (canonical, reverse) pairs.
func (s *State) Mutate(ev Event) []graph.ChannelID {
	var changed []graph.ChannelID
	// sync re-evaluates one duplex link's desired state against the
	// working network and records the flip.
	sync := func(link graph.ChannelID) {
		ch := s.working.Channel(link)
		down := s.linkFailed[link] || s.nodeDown[ch.From] || s.nodeDown[ch.To]
		if s.working.SetChannelFailed(link, down) {
			changed = append(changed, link, ch.Reverse)
		}
	}
	switch ev.Kind {
	case LinkFail, LinkJoin:
		link := canonical(s.working, ev.Link)
		want := ev.Kind == LinkFail
		if s.linkFailed[link] == want {
			return nil
		}
		s.linkFailed[link] = want
		sync(link)
	case SwitchFail, SwitchJoin:
		want := ev.Kind == SwitchFail
		if s.nodeDown[ev.Node] == want {
			return nil
		}
		s.nodeDown[ev.Node] = want
		for _, link := range s.links[ev.Node] {
			sync(link)
		}
	}
	return changed
}

// revert undoes Mutate after a failed reconfiguration so the state stays
// consistent with the still-published epoch.
func (s *State) revert(ev Event, changed []graph.ChannelID) {
	switch ev.Kind {
	case LinkFail, LinkJoin:
		link := canonical(s.working, ev.Link)
		s.linkFailed[link] = ev.Kind != LinkFail
	case SwitchFail, SwitchJoin:
		s.nodeDown[ev.Node] = ev.Kind != SwitchFail
	}
	for i := 0; i < len(changed); i += 2 {
		c := changed[i]
		s.working.SetChannelFailed(c, !s.working.Channel(c).Failed)
	}
}

// affectedDests marks the destinations an event must re-route on the
// post-event network in affected (grown to one entry per column of table
// and returned), reading table, the published pre-event entries (bound
// to the old network, whose ID spaces newNet shares): for a failed
// channel, exactly the destinations forwarded over it — the columns
// holding it in its tail switch's row, the only row that can (a
// terminal's single hop has no row and is covered by the degree rule
// below); for restored channels, the ones with incomplete columns
// (disconnection healing); plus destinations that just lost their last
// channel (their stale columns must drop even though no path can be
// rebuilt).
func affectedDests(affected []bool, newNet *graph.Network, table *routing.Table, changed []graph.ChannelID) []bool {
	dests, switches := table.Dests(), newNet.RowSwitches()
	affected = slices.Grow(affected[:0], len(dests))[:len(dests)]
	clear(affected)
	restored := false
	for _, c := range changed {
		ch := newNet.Channel(c)
		if !ch.Failed {
			restored = true
		} else if newNet.IsSwitch(ch.From) {
			for i, next := range table.Row(ch.From) {
				if next == c {
					affected[i] = true
				}
			}
		}
	}
	if restored {
		for i, d := range dests {
			if affected[i] || newNet.Degree(d) == 0 {
				continue
			}
			for _, sw := range switches {
				if newNet.Degree(sw) > 0 && sw != d && table.Next(sw, d) == graph.NoChannel {
					affected[i] = true
					break
				}
			}
		}
	}
	for i, d := range dests {
		if newNet.Degree(d) > 0 {
			continue
		}
		for _, sw := range switches {
			if table.Next(sw, d) != graph.NoChannel {
				affected[i] = true
				break
			}
		}
	}
	return affected
}

// downLinks returns the canonical halves of links currently failed on
// their own, sorted (the restorable set for churn generators).
func (s *State) downLinks() []graph.ChannelID {
	var down []graph.ChannelID
	for link, failed := range s.linkFailed {
		if failed {
			down = append(down, link)
		}
	}
	sortChannels(down)
	return down
}

// downSwitches returns the currently down switches, sorted.
func (s *State) downSwitches() []graph.NodeID {
	var nodes []graph.NodeID
	for n, down := range s.nodeDown {
		if down {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}
