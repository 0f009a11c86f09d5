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
	"sort"
	"sync/atomic"
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
	// are kept in the channel list (so IDs stay stable) but are excluded
	// from adjacency.
	Failed bool
}

// Network is an immutable interconnection network, Definition 1. Build it
// with a Builder; routing state (weights, tables) lives outside.
type Network struct {
	nodes    []Node
	channels []Channel
	// out[n] lists the IDs of non-failed channels (n, .) sorted by
	// destination then ID; in[n] lists non-failed channels (., n).
	out [][]ChannelID
	in  [][]ChannelID

	numSwitches  int
	numTerminals int

	// csr caches the flat CSR adjacency view (see csr.go); nil until the
	// first CSRView call, dropped by adjacency mutations.
	csr atomic.Pointer[CSR]
}

// NumNodes returns the total number of nodes (switches + terminals).
func (g *Network) NumNodes() int { return len(g.nodes) }

// NumSwitches returns the number of switch nodes.
func (g *Network) NumSwitches() int { return g.numSwitches }

// NumTerminals returns the number of terminal nodes.
func (g *Network) NumTerminals() int { return g.numTerminals }

// NumChannels returns the total number of directed channels, including
// failed ones (IDs are stable under fault injection).
func (g *Network) NumChannels() int { return len(g.channels) }

// Node returns the node with the given ID.
func (g *Network) Node(id NodeID) Node { return g.nodes[id] }

// Channel returns the channel with the given ID.
func (g *Network) Channel(id ChannelID) Channel { return g.channels[id] }

// Out returns the non-failed outgoing channels of n. The returned slice
// must not be modified.
func (g *Network) Out(n NodeID) []ChannelID { return g.out[n] }

// In returns the non-failed incoming channels of n. The returned slice
// must not be modified.
func (g *Network) In(n NodeID) []ChannelID { return g.in[n] }

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

// Switches returns the IDs of all switch nodes in ascending order.
func (g *Network) Switches() []NodeID {
	ids := make([]NodeID, 0, g.numSwitches)
	for i := range g.nodes {
		if g.nodes[i].Kind == Switch {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

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
	out := g.out[t]
	if len(out) == 0 {
		panic(fmt.Sprintf("graph: terminal %d has no channel", t))
	}
	return g.channels[out[0]].To
}

// Degree returns the number of non-failed outgoing channels of n (the
// radix in use).
func (g *Network) Degree(n NodeID) int { return len(g.out[n]) }

// MaxDegree returns the maximum out-degree over all nodes (Δ in the paper).
func (g *Network) MaxDegree() int {
	max := 0
	for n := range g.out {
		if d := len(g.out[n]); d > max {
			max = d
		}
	}
	return max
}

// FindChannel returns the ID of some non-failed channel from a to b, or
// NoChannel if none exists.
func (g *Network) FindChannel(a, b NodeID) ChannelID {
	for _, c := range g.out[a] {
		if g.channels[c].To == b {
			return c
		}
	}
	return NoChannel
}

// ChannelsBetween returns all non-failed parallel channels from a to b.
func (g *Network) ChannelsBetween(a, b NodeID) []ChannelID {
	var res []ChannelID
	for _, c := range g.out[a] {
		if g.channels[c].To == b {
			res = append(res, c)
		}
	}
	return res
}

// Builder incrementally constructs a Network.
type Builder struct {
	nodes    []Node
	channels []Channel
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
	fwd := ChannelID(len(b.channels))
	rev := fwd + 1
	b.channels = append(b.channels,
		Channel{ID: fwd, From: a, To: x, Reverse: rev},
		Channel{ID: rev, From: x, To: a, Reverse: fwd},
	)
	return fwd
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Build validates the network and freezes it. Terminal nodes must have
// exactly one duplex link (Definition 1).
func (b *Builder) Build() (*Network, error) {
	g := &Network{
		nodes:    append([]Node(nil), b.nodes...),
		channels: append([]Channel(nil), b.channels...),
	}
	g.rebuildAdjacency()
	for _, n := range g.nodes {
		switch n.Kind {
		case Terminal:
			if len(g.out[n.ID]) != 1 || len(g.in[n.ID]) != 1 {
				return nil, fmt.Errorf("graph: terminal %d (%s) must have exactly one link, has %d out/%d in",
					n.ID, n.Name, len(g.out[n.ID]), len(g.in[n.ID]))
			}
			g.numTerminals++
		case Switch:
			g.numSwitches++
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

// rebuildAdjacency recomputes out/in lists from non-failed channels. All
// per-node lists are carved out of two shared backing arrays (a counting
// pass sizes them exactly), so a rebuild costs a constant number of
// allocations instead of two per node. Every list is full-length capped
// (s[i:j:j]), so a later insertSorted append reallocates that single
// list instead of clobbering its neighbor.
func (g *Network) rebuildAdjacency() {
	g.invalidateCSR()
	nn := len(g.nodes)
	outDeg := make([]int32, nn)
	inDeg := make([]int32, nn)
	live := 0
	for i := range g.channels {
		c := &g.channels[i]
		if c.Failed {
			continue
		}
		outDeg[c.From]++
		inDeg[c.To]++
		live++
	}
	outBack := make([]ChannelID, live)
	inBack := make([]ChannelID, live)
	g.out = make([][]ChannelID, nn)
	g.in = make([][]ChannelID, nn)
	oOff, iOff := 0, 0
	for n := 0; n < nn; n++ {
		g.out[n] = outBack[oOff : oOff : oOff+int(outDeg[n])]
		g.in[n] = inBack[iOff : iOff : iOff+int(inDeg[n])]
		oOff += int(outDeg[n])
		iOff += int(inDeg[n])
	}
	for i := range g.channels {
		c := &g.channels[i]
		if c.Failed {
			continue
		}
		g.out[c.From] = append(g.out[c.From], c.ID)
		g.in[c.To] = append(g.in[c.To], c.ID)
	}
	for n := range g.out {
		out, in := g.out[n], g.in[n]
		sort.Slice(out, func(i, j int) bool { return g.outBefore(out[i], out[j]) })
		sort.Slice(in, func(i, j int) bool { return g.inBefore(in[i], in[j]) })
	}
}

// outBefore is the order of Out(n): ascending head node, then channel
// ID. inBefore is the order of In(n): ascending tail node, then channel
// ID. rebuildAdjacency sorts by them and the incremental mutators insert
// by them, which is what keeps a mutated network equal to a rebuilt one.
func (g *Network) outBefore(a, b ChannelID) bool {
	if ta, tb := g.channels[a].To, g.channels[b].To; ta != tb {
		return ta < tb
	}
	return a < b
}

func (g *Network) inBefore(a, b ChannelID) bool {
	if fa, fb := g.channels[a].From, g.channels[b].From; fa != fb {
		return fa < fb
	}
	return a < b
}

// Clone returns a deep copy of g. The copy shares nothing with the
// original, so it may be mutated (SetChannelFailed) while readers keep
// using g — the basis of the fabric manager's copy-on-write snapshots.
// All per-node adjacency lists are copied into two shared backing arrays
// (each carved slice full-length capped so incremental inserts reallocate
// only the touched list), keeping a clone at a constant number of
// allocations: the repair path clones per churn event, and O(nodes)
// little slice headers per event was the dominant clone cost.
func (g *Network) Clone() *Network {
	ng := &Network{
		nodes:        append([]Node(nil), g.nodes...),
		channels:     append([]Channel(nil), g.channels...),
		out:          make([][]ChannelID, len(g.out)),
		in:           make([][]ChannelID, len(g.in)),
		numSwitches:  g.numSwitches,
		numTerminals: g.numTerminals,
	}
	outTotal, inTotal := 0, 0
	for n := range g.out {
		outTotal += len(g.out[n])
		inTotal += len(g.in[n])
	}
	outBack := make([]ChannelID, 0, outTotal)
	inBack := make([]ChannelID, 0, inTotal)
	for n := range g.out {
		o := len(outBack)
		outBack = append(outBack, g.out[n]...)
		ng.out[n] = outBack[o:len(outBack):len(outBack)]
		i := len(inBack)
		inBack = append(inBack, g.in[n]...)
		ng.in[n] = inBack[i:len(inBack):len(inBack)]
	}
	return ng
}

// SetChannelFailed marks channel c and its reverse half failed (or
// restores them) and updates the adjacency lists incrementally — a delta
// mutation that avoids the O(|C| log |C|) rebuild of WithoutChannels. It
// reports whether the state of c actually changed (a c already in the
// requested state is a no-op, whatever its reverse half is in). The
// receiver must be a private copy (see Clone); published snapshots stay
// immutable.
func (g *Network) SetChannelFailed(c ChannelID, failed bool) bool {
	if g.channels[c].Failed == failed {
		return false
	}
	g.invalidateCSR()
	g.setHalf(c, failed)
	g.setHalf(g.channels[c].Reverse, failed)
	return true
}

// SetHalfFailed marks the single directed channel c failed (or restores
// it) WITHOUT touching its reverse half — the one-way fault model used
// by the existence decision procedure's pathological fixtures (directed
// rings, figure-eights) and the stress generator's "oneway" class. Like
// SetChannelFailed it updates adjacency incrementally and reports
// whether the state changed. The receiver must be a private copy (see
// Clone). Networks with half-failed links are asymmetric: callers that
// assume duplex reachability (see Symmetric) must not be handed one.
func (g *Network) SetHalfFailed(c ChannelID, failed bool) bool {
	if g.channels[c].Failed == failed {
		return false
	}
	g.invalidateCSR()
	g.setHalf(c, failed)
	return true
}

// setHalf moves the directed channel c into the given state and out of
// (or, in adjacency order, into) the lists of its two end nodes; a
// channel already in that state is left alone. The caller invalidates
// the CSR view.
func (g *Network) setHalf(c ChannelID, failed bool) {
	ch := &g.channels[c]
	if ch.Failed == failed {
		return
	}
	ch.Failed = failed
	if failed {
		g.out[ch.From] = removeID(g.out[ch.From], c)
		g.in[ch.To] = removeID(g.in[ch.To], c)
	} else {
		g.out[ch.From] = insertSorted(g.out[ch.From], c, g.outBefore)
		g.in[ch.To] = insertSorted(g.in[ch.To], c, g.inBefore)
	}
}

// Symmetric reports whether every live channel's reverse half is also
// live — i.e. the network is still a duplex (undirected-equivalent)
// graph. Networks degraded with SetHalfFailed are asymmetric; engines
// and subsystems built on the duplex assumption (Nue, the fabric
// manager) are not applicable to them.
func (g *Network) Symmetric() bool {
	for i := range g.channels {
		c := &g.channels[i]
		if !c.Failed && g.channels[c.Reverse].Failed {
			return false
		}
	}
	return true
}

// removeID deletes id from the slice preserving order.
func removeID(s []ChannelID, id ChannelID) []ChannelID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// insertSorted inserts id into the slice at the position given by less,
// preserving the adjacency sort order.
func insertSorted(s []ChannelID, id ChannelID, less func(a, b ChannelID) bool) []ChannelID {
	i := sort.Search(len(s), func(i int) bool { return less(id, s[i]) })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// WithoutChannels returns a copy of g with the given channels (and their
// reverse halves) marked failed. Terminals that would become disconnected
// make the copy invalid for Build-level guarantees; callers should check
// Connected() afterwards.
func (g *Network) WithoutChannels(failed ...ChannelID) *Network {
	ng := &Network{
		nodes:        append([]Node(nil), g.nodes...),
		channels:     append([]Channel(nil), g.channels...),
		numSwitches:  g.numSwitches,
		numTerminals: g.numTerminals,
	}
	for _, c := range failed {
		ng.channels[c].Failed = true
		ng.channels[ng.channels[c].Reverse].Failed = true
	}
	ng.rebuildAdjacency()
	return ng
}

// WithoutNodes returns a copy of g with all channels touching the given
// nodes marked failed (the nodes remain as isolated stubs so IDs are
// stable). Used to model switch failures.
func (g *Network) WithoutNodes(dead ...NodeID) *Network {
	deadSet := make(map[NodeID]bool, len(dead))
	for _, n := range dead {
		deadSet[n] = true
	}
	ng := &Network{
		nodes:        append([]Node(nil), g.nodes...),
		channels:     append([]Channel(nil), g.channels...),
		numSwitches:  g.numSwitches,
		numTerminals: g.numTerminals,
	}
	for i := range ng.channels {
		c := &ng.channels[i]
		if deadSet[c.From] || deadSet[c.To] {
			c.Failed = true
		}
	}
	ng.rebuildAdjacency()
	return ng
}
