package routing

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// CastGroup is the routed form of one multicast group: a source-rooted
// directed tree over the network (one out-channel set per switch) plus
// the bookkeeping of which members the tree serves and which fall back
// to unicast-based multicast (UBM) legs.
//
// Group IDs are 1-based so that a zero group id elsewhere (e.g.
// sim.Message.Group) unambiguously means "unicast".
type CastGroup struct {
	// ID is the 1-based group identifier.
	ID int
	// Source is the member that injects cast traffic for this group.
	Source graph.NodeID
	// Members lists every member terminal including Source.
	Members []graph.NodeID
	// SL is the service level (virtual layer) cast traffic of this group
	// travels on; the tree's dependencies were certified against the
	// unicast dependencies of the same layer.
	SL uint8
	// Receivers lists the members the tree delivers to (sorted,
	// excluding Source).
	Receivers []graph.NodeID
	// UBM lists the members served by serialized unicast legs instead of
	// the tree (sorted): attaching them to the tree would have closed a
	// dependency cycle, so they ride the already-certified unicast
	// routing.
	UBM []graph.NodeID
	// Unrouted lists members no path can reach at all (disconnected by
	// faults); no traffic is owed to them.
	Unrouted []graph.NodeID

	// outs maps a switch to its cast out-channels for this group —
	// branch channels toward child switches and ejection channels toward
	// receiver terminals — kept in ascending ChannelID order. The order
	// is load-bearing: the simulator reserves branch outputs in exactly
	// this order, and the V-type dependencies certified for the tree
	// assume it.
	outs map[graph.NodeID][]graph.ChannelID
}

// AddOut inserts channel c into the out-set of switch sw, keeping the
// ascending-ID invariant. Duplicate insertions are ignored.
func (g *CastGroup) AddOut(sw graph.NodeID, c graph.ChannelID) {
	if g.outs == nil {
		g.outs = make(map[graph.NodeID][]graph.ChannelID)
	}
	s := g.outs[sw]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= c })
	if i < len(s) && s[i] == c {
		return
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = c
	g.outs[sw] = s
}

// RemoveOut deletes channel c from the out-set of switch sw.
func (g *CastGroup) RemoveOut(sw graph.NodeID, c graph.ChannelID) {
	s := g.outs[sw]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= c })
	if i >= len(s) || s[i] != c {
		return
	}
	s = append(s[:i], s[i+1:]...)
	if len(s) == 0 {
		delete(g.outs, sw)
	} else {
		g.outs[sw] = s
	}
}

// Outs returns the cast out-channels of switch sw in ascending
// ChannelID order (nil when sw is not part of the tree). The slice must
// not be modified.
func (g *CastGroup) Outs(sw graph.NodeID) []graph.ChannelID { return g.outs[sw] }

// TreeEdges counts the tree's out-channels (branches plus ejections).
func (g *CastGroup) TreeEdges() int {
	n := 0
	for _, s := range g.outs {
		n += len(s)
	}
	return n
}

// CastTable holds the routed multicast groups of one epoch, alongside
// the unicast Table in a routing.Result.
type CastTable struct {
	groups map[int]*CastGroup
	ids    []int // ascending
}

// NewCastTable returns an empty cast table.
func NewCastTable() *CastTable {
	return &CastTable{groups: make(map[int]*CastGroup)}
}

// Add inserts (or replaces) a group. Group IDs must be >= 1.
func (t *CastTable) Add(g *CastGroup) {
	if g.ID < 1 {
		panic(fmt.Sprintf("routing: cast group id %d (ids are 1-based)", g.ID))
	}
	if _, ok := t.groups[g.ID]; !ok {
		i := sort.SearchInts(t.ids, g.ID)
		t.ids = append(t.ids, 0)
		copy(t.ids[i+1:], t.ids[i:])
		t.ids[i] = g.ID
	}
	t.groups[g.ID] = g
}

// Group returns the group with the given id, or nil.
func (t *CastTable) Group(id int) *CastGroup { return t.groups[id] }

// IDs returns the group ids in ascending order (do not modify).
func (t *CastTable) IDs() []int { return t.ids }

// NumGroups returns the number of groups.
func (t *CastTable) NumGroups() int { return len(t.ids) }
