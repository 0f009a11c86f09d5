// Package graph models lossless interconnection networks as directed
// multigraphs, following Definitions 1-3 of Domke, Hoefler, Matsuoka:
// "Routing on the Dependency Graph" (HPDC'16).
//
// A network consists of nodes (switches and terminals) connected by duplex
// links. Every duplex link is split into two directed channels of opposite
// direction. Parallel channels between the same pair of nodes (multigraph
// redundancy) are permitted and kept distinct.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node (switch or terminal) in a Network. IDs are dense
// indices in [0, NumNodes).
type NodeID int32

// ChannelID identifies a directed channel in a Network. IDs are dense
// indices in [0, NumChannels).
type ChannelID int32

// None is the sentinel for "no node" / "no channel".
const (
	NoNode    NodeID    = -1
	NoChannel ChannelID = -1
)

// NodeKind distinguishes switches from terminals.
type NodeKind uint8

const (
	// Switch nodes forward traffic and own forwarding-table rows.
	Switch NodeKind = iota
	// Terminal nodes (a.k.a. hosts, HCAs) inject and absorb traffic. Per
	// Definition 1 a terminal has exactly one neighbor.
	Terminal
)

func (k NodeKind) String() string {
	switch k {
	case Switch:
		return "switch"
	case Terminal:
		return "terminal"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is a network device.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Name is an optional human-readable label, e.g. "sw-2-3-0".
	Name string
}

// Channel is one directed half of a duplex link.
type Channel struct {
	ID   ChannelID
	From NodeID
	To   NodeID
	// Reverse is the ID of the oppositely directed channel of the same
	// duplex link. Every channel has one (links are always duplex).
	Reverse ChannelID
	// Failed marks a channel removed by fault injection. Failed channels
	// keep their IDs (so IDs stay stable) but are excluded from adjacency.
	Failed bool
}

// Network is an immutable interconnection network, Definition 1. Build it
// with a Builder; routing state (weights, tables) lives outside.
type Network struct {
	nodes []Node
	// adj is the one adjacency (csr.go).
	adj CSR
	// switches lists the switches in ascending ID order, and swRow maps
	// a node to its position there (-1 for a terminal): the row order of
	// every forwarding table of the network. Build makes both; clones
	// share them.
	switches []NodeID
	swRow    []int32

	numTerminals int
}

// NumNodes returns the total number of nodes (switches + terminals).
func (g *Network) NumNodes() int { return len(g.nodes) }

// NumSwitches returns the number of switch nodes.
func (g *Network) NumSwitches() int { return len(g.switches) }

// NumTerminals returns the number of terminal nodes.
func (g *Network) NumTerminals() int { return g.numTerminals }

// NumChannels returns the total number of directed channels, including
// failed ones (IDs are stable under fault injection).
func (g *Network) NumChannels() int { return g.adj.NumChannels() }

// Node returns the node with the given ID.
func (g *Network) Node(id NodeID) Node { return g.nodes[id] }

// Channel returns the channel with the given ID.
func (g *Network) Channel(id ChannelID) Channel {
	a := &g.adj
	return Channel{ID: id, From: a.From[id], To: a.To[id], Reverse: a.Rev[id], Failed: a.Failed[id]}
}

// Out returns the non-failed outgoing channels of n, sorted by head node
// then ID. The returned slice must not be modified.
func (g *Network) Out(n NodeID) []ChannelID { return g.adj.Out(n) }

// In returns the non-failed incoming channels of n, sorted by tail node
// then ID. The returned slice must not be modified.
func (g *Network) In(n NodeID) []ChannelID { return g.adj.In(n) }

// IsTerminal reports whether n is a terminal.
func (g *Network) IsTerminal(n NodeID) bool { return g.nodes[n].Kind == Terminal }

// IsSwitch reports whether n is a switch.
func (g *Network) IsSwitch(n NodeID) bool { return g.nodes[n].Kind == Switch }

// Nodes returns all node IDs, switches first is NOT guaranteed; IDs are in
// insertion order.
func (g *Network) Nodes() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	for i := range g.nodes {
		ids[i] = NodeID(i)
	}
	return ids
}

// Switches returns the IDs of all switch nodes in ascending order, in a
// new slice the caller may modify.
func (g *Network) Switches() []NodeID { return slices.Clone(g.switches) }

// RowSwitches is Switches without the copy: the network's own list,
// shared by its clones, whose i-th switch owns row i of every forwarding
// table of the network. Do not modify it.
func (g *Network) RowSwitches() []NodeID { return g.switches[:len(g.switches):len(g.switches)] }

// SwitchRows maps each node to its position in Switches(), the
// forwarding-table row it owns, or -1 for a terminal: the network's own
// array, shared by its clones. Do not modify it.
func (g *Network) SwitchRows() []int32 { return g.swRow[:len(g.swRow):len(g.swRow)] }

// Terminals returns the IDs of all terminal nodes in ascending order.
func (g *Network) Terminals() []NodeID {
	ids := make([]NodeID, 0, g.numTerminals)
	for i := range g.nodes {
		if g.nodes[i].Kind == Terminal {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// TerminalSwitch returns the switch a terminal is attached to.
// It panics if t is not a terminal or is disconnected.
func (g *Network) TerminalSwitch(t NodeID) NodeID {
	if !g.IsTerminal(t) {
		panic(fmt.Sprintf("graph: node %d is not a terminal", t))
	}
	out := g.Out(t)
	if len(out) == 0 {
		panic(fmt.Sprintf("graph: terminal %d has no channel", t))
	}
	return g.adj.To[out[0]]
}

// Degree returns the number of non-failed outgoing channels of n (the
// radix in use).
func (g *Network) Degree(n NodeID) int { return int(g.adj.outEnd[n] - g.adj.start[n]) }

// FindChannel returns the ID of some non-failed channel from a to b, or
// NoChannel if none exists.
func (g *Network) FindChannel(a, b NodeID) ChannelID {
	for _, c := range g.Out(a) {
		if g.adj.To[c] == b {
			return c
		}
	}
	return NoChannel
}

// Builder incrementally constructs a Network.
type Builder struct {
	nodes    []Node
	from, to []NodeID
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode appends a node of the given kind and returns its ID.
func (b *Builder) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Name: name})
	return id
}

// AddSwitch appends a switch node.
func (b *Builder) AddSwitch(name string) NodeID { return b.AddNode(Switch, name) }

// AddTerminal appends a terminal node.
func (b *Builder) AddTerminal(name string) NodeID { return b.AddNode(Terminal, name) }

// AddLink adds a duplex link between a and b, creating the two directed
// channels (a,b) and (b,a). It returns the ID of the (a,b) channel; the
// reverse has ID one greater. Parallel links may be added repeatedly.
func (b *Builder) AddLink(a, x NodeID) ChannelID {
	if a == x {
		panic("graph: self-link not allowed")
	}
	fwd := ChannelID(len(b.from))
	b.from = append(b.from, a, x)
	b.to = append(b.to, x, a)
	return fwd
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build validates the network and freezes it. Terminal nodes must have
// exactly one duplex link (Definition 1).
func (b *Builder) Build() (*Network, error) {
	g := &Network{
		nodes: slices.Clone(b.nodes),
		adj:   layout(len(b.nodes), slices.Clone(b.from), slices.Clone(b.to)),
		swRow: make([]int32, len(b.nodes)),
	}
	for _, n := range g.nodes {
		g.swRow[n.ID] = -1
		switch n.Kind {
		case Terminal:
			if out, in := len(g.Out(n.ID)), len(g.In(n.ID)); out != 1 || in != 1 {
				return nil, fmt.Errorf("graph: terminal %d (%s) must have exactly one link, has %d out/%d in",
					n.ID, n.Name, out, in)
			}
			g.numTerminals++
		case Switch:
			g.swRow[n.ID] = int32(len(g.switches))
			g.switches = append(g.switches, n.ID)
		}
	}
	return g, nil
}

// MustBuild is Build but panics on error; intended for generators whose
// output is correct by construction.
func (b *Builder) MustBuild() *Network {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Clone returns a copy of g that may be mutated (SetChannelFailed) while
// readers keep using g — the basis of the fabric manager's copy-on-write
// snapshots. It copies only what a failure or restore writes (OutCh,
// InCh, Failed and the live ends) and shares the rest — the nodes, the
// switch rows, the range starts, From, To and Rev — which nothing writes
// after Build. A
// clone therefore costs a constant number of allocations: the repair path
// clones per churn event.
func (g *Network) Clone() *Network {
	ng := *g
	a := &ng.adj
	a.OutCh, a.InCh = slices.Clone(a.OutCh), slices.Clone(a.InCh)
	a.Failed = slices.Clone(a.Failed)
	a.outEnd, a.inEnd = slices.Clone(a.outEnd), slices.Clone(a.inEnd)
	return &ng
}

// SetChannelFailed marks channel c and its reverse half failed (or
// restores them), moving each across the live end of its nodes' ranges.
// It reports whether the state of c actually changed (a c already in the
// requested state is a no-op, whatever its reverse half is in). The
// receiver must be a private copy (see Clone); published snapshots stay
// immutable.
func (g *Network) SetChannelFailed(c ChannelID, failed bool) bool {
	if g.adj.Failed[c] == failed {
		return false
	}
	g.adj.setHalf(c, failed)
	g.adj.setHalf(g.adj.Rev[c], failed)
	return true
}

// SetHalfFailed marks the single directed channel c failed (or restores
// it) WITHOUT touching its reverse half — the one-way fault model used
// by the existence decision procedure's pathological fixtures (directed
// rings, figure-eights) and the stress generator's "oneway" class. Like
// SetChannelFailed it reports whether the state changed. The receiver
// must be a private copy (see Clone). Networks with half-failed links are
// asymmetric: callers that assume duplex reachability (see Symmetric)
// must not be handed one.
func (g *Network) SetHalfFailed(c ChannelID, failed bool) bool {
	if g.adj.Failed[c] == failed {
		return false
	}
	g.adj.setHalf(c, failed)
	return true
}

// Symmetric reports whether every live channel's reverse half is also
// live — i.e. the network is still a duplex (undirected-equivalent)
// graph. Networks degraded with SetHalfFailed are asymmetric; engines
// and subsystems built on the duplex assumption (Nue, the fabric
// manager) are not applicable to them.
func (g *Network) Symmetric() bool {
	for c, failed := range g.adj.Failed {
		if !failed && g.adj.Failed[g.adj.Rev[c]] {
			return false
		}
	}
	return true
}

// WithoutNodes returns a copy of g with all channels touching the given
// nodes marked failed (the nodes remain as isolated stubs so IDs are
// stable). Used to model switch failures.
func (g *Network) WithoutNodes(dead ...NodeID) *Network {
	ng := g.Clone()
	for _, n := range dead {
		// Failing the last live channel leaves the ones before it in place.
		for out := ng.Out(n); len(out) > 0; out = out[:len(out)-1] {
			ng.adj.setHalf(out[len(out)-1], true)
		}
		for in := ng.In(n); len(in) > 0; in = in[:len(in)-1] {
			ng.adj.setHalf(in[len(in)-1], true)
		}
	}
	return ng
}
