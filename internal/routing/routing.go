// Package routing defines the artifacts all routing engines in this
// repository produce: destination-based forwarding tables (the analogue of
// InfiniBand linear forwarding tables), virtual-layer (SL/VL) assignments,
// and a common Result type consumed by the verifier, the metrics package
// and the flit-level simulator.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Table is a destination-based forwarding table: one next-hop channel per
// (switch, destination) pair. Terminals need no rows — their single
// channel is the implicit next hop.
//
// A published table is immutable: Row hands out views of its entries,
// and Rebind shares them with a header bound to another network. Whoever
// repairs a table clones it first and writes only the clone.
type Table struct {
	net       *graph.Network
	dests     []graph.NodeID
	destIndex []int32 // node -> column, -1 if not a destination
	// swRow is net.SwitchRows(): node -> row, -1 if not a switch. The
	// network's array, not a copy.
	swRow []int32
	next  []graph.ChannelID
}

// NewTable allocates an empty table for the given destination set.
func NewTable(net *graph.Network, dests []graph.NodeID) *Table {
	t := &Table{
		net:       net,
		dests:     append([]graph.NodeID(nil), dests...),
		destIndex: make([]int32, net.NumNodes()),
		swRow:     net.SwitchRows(),
	}
	for i := range t.destIndex {
		t.destIndex[i] = -1
	}
	for i, d := range t.dests {
		t.destIndex[d] = int32(i)
	}
	t.next = make([]graph.ChannelID, net.NumSwitches()*len(t.dests))
	for i := range t.next {
		t.next[i] = graph.NoChannel
	}
	return t
}

// Dests returns the destination set of the table (do not modify).
func (t *Table) Dests() []graph.NodeID { return t.dests }

// Set records the next-hop channel at switch sw toward destination dest.
func (t *Table) Set(sw, dest graph.NodeID, c graph.ChannelID) {
	r, d := t.swRow[sw], t.destIndex[dest]
	if r < 0 {
		panic(fmt.Sprintf("routing: Set on non-switch node %d", sw))
	}
	if d < 0 {
		panic(fmt.Sprintf("routing: Set for non-destination node %d", dest))
	}
	t.next[int(r)*len(t.dests)+int(d)] = c
}

// Next returns the next-hop channel at node n toward destination dest.
// For terminals this is their unique channel; NoChannel means no route (or
// n == dest).
func (t *Table) Next(n, dest graph.NodeID) graph.ChannelID {
	if n == dest {
		return graph.NoChannel
	}
	r := t.swRow[n]
	if r < 0 { // a terminal
		out := t.net.Out(n)
		if len(out) == 0 {
			return graph.NoChannel
		}
		return out[0]
	}
	d := t.destIndex[dest]
	if d < 0 {
		return graph.NoChannel
	}
	return t.next[int(r)*len(t.dests)+int(d)]
}

// ErrNoRoute matches a walk that met a missing table entry.
var ErrNoRoute = errors.New("routing: no route")

// ErrRoutingLoop matches a walk that revisited a node.
var ErrRoutingLoop = errors.New("routing: forwarding loop")

// Path follows the table from src to dst on the network it was built for;
// see Walk for what makes the path valid and how a broken one is reported.
func (t *Table) Path(src, dst graph.NodeID) ([]graph.ChannelID, error) {
	return Walk(t.net, &Result{Table: t}, src, dst, nil)
}

// Result is the complete output of a routing engine.
type Result struct {
	// Algorithm names the engine ("nue", "dfsssp", ...).
	Algorithm string
	// Table holds the destination-based next hops.
	Table *Table
	// VCs is the number of virtual channels (virtual layers) the routing
	// needs for deadlock freedom (>= 1).
	VCs int
	// DestLayer, if non-nil, assigns each destination (indexed like
	// Table.Dests) to a virtual layer; the layer of a path depends only on
	// its destination (Nue's scheme).
	DestLayer []uint8
	// PairLayer, if non-nil, assigns layers per (source, destination)
	// pair: PairLayer[srcNode][destIndex] (DFSSSP/LASH scheme). Exactly
	// one of DestLayer/PairLayer may be non-nil; both nil means a single
	// layer.
	PairLayer [][]uint8
	// SLToVL, if non-nil, maps a path's service level and the channel
	// being entered to the virtual lane occupied on that channel
	// (InfiniBand SL2VL tables; Torus-2QoS selects the VL per dimension
	// and dateline this way). When nil, VL == SL for the whole path.
	SLToVL func(sl uint8, c graph.ChannelID) uint8
	// PairPath, if non-nil, overrides the forwarding tables for specific
	// (source, destination) pairs with explicit channel paths. Routings
	// that are not destination-based (the existence procedure's witness)
	// use this; such routings are inapplicable to InfiniBand but valid for
	// source-routed technologies. Key via PairKey.
	PairPath map[uint64][]graph.ChannelID
	// LayerCDG, if non-nil, holds one digest per virtual layer over the
	// final per-channel/per-edge states of the layer's complete channel
	// dependency graph (cdg.StateDigest). Engines that route on the CDG
	// (Nue) publish it so equivalence tests can assert two runs drove the
	// CDG identically, not merely that their tables coincide.
	LayerCDG []uint64
	// Stats carries engine-specific counters (escape fallbacks, cycle
	// searches, ...).
	Stats map[string]float64
}

// PairKey packs a (source, destination) pair for PairPath lookups.
func PairKey(src, dst graph.NodeID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// VL returns the virtual lane a packet with service level sl occupies on
// channel c.
func (r *Result) VL(sl uint8, c graph.ChannelID) uint8 {
	if r.SLToVL != nil {
		return r.SLToVL(sl, c)
	}
	return sl
}

// Layer returns the service level (virtual layer) used by traffic from
// src to dst.
func (r *Result) Layer(src, dst graph.NodeID) uint8 {
	switch {
	case r.DestLayer != nil:
		if i := r.Table.destIndex[dst]; i >= 0 {
			return r.DestLayer[i]
		}
		return 0
	case r.PairLayer != nil:
		if i := r.Table.destIndex[dst]; i >= 0 {
			return r.PairLayer[src][i]
		}
		return 0
	default:
		return 0
	}
}

// DestIndex exposes the table's destination column for a node (-1 if not
// a destination); used by engines filling PairLayer.
func (t *Table) DestIndex(n graph.NodeID) int32 { return t.destIndex[n] }

// Engine is implemented by every routing algorithm in this repository.
type Engine interface {
	// Name returns the algorithm identifier.
	Name() string
	// Route computes forwarding tables for the given destinations under a
	// virtual-channel budget of maxVCs. Engines that cannot respect the
	// budget (e.g. DFSSSP on a hard topology) return an error; engines
	// that cannot route the topology at all (e.g. Torus-2QoS off-torus)
	// do too.
	Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*Result, error)
}
