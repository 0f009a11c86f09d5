package routing

import (
	"fmt"

	"repro/internal/graph"
)

// WalkKind classifies why a path walk failed.
type WalkKind uint8

const (
	// WalkNoEntry: the table has no next hop at At (matches ErrNoRoute).
	WalkNoEntry WalkKind = iota
	// WalkWrongNode: the table entry at At is a channel that does not
	// leave At.
	WalkWrongNode
	// WalkFailedChannel: the hop taken at At is a failed channel of the
	// network the walk runs on.
	WalkFailedChannel
	// WalkLoop: the path enters node At a second time (matches
	// ErrRoutingLoop).
	WalkLoop
	// WalkOverrideEmpty: the pair has a PairPath override with no hops.
	WalkOverrideEmpty
	// WalkOverrideDiscontinuous: an override hop does not leave At, the
	// node the previous hop entered.
	WalkOverrideDiscontinuous
	// WalkOverrideShort: the override ends at At, short of the
	// destination.
	WalkOverrideShort
)

var walkKindText = [...]string{
	WalkNoEntry:               "no route",
	WalkWrongNode:             "table entry does not leave the node",
	WalkFailedChannel:         "failed channel",
	WalkLoop:                  "forwarding loop revisits the node",
	WalkOverrideEmpty:         "empty explicit path",
	WalkOverrideDiscontinuous: "explicit path discontinuous",
	WalkOverrideShort:         "explicit path ends short of the destination",
}

func (k WalkKind) String() string { return walkKindText[k] }

// WalkError is the failure of one Walk: the pair, the node the walker
// stood at (for WalkLoop, the node entered twice), the number of hops
// taken before the failure, and its kind.
type WalkError struct {
	Src, Dst graph.NodeID
	At       graph.NodeID
	Hop      int
	Kind     WalkKind
}

func (e *WalkError) Error() string {
	return fmt.Sprintf("routing: path %d -> %d: %s at node %d (hop %d)", e.Src, e.Dst, e.Kind, e.At, e.Hop)
}

// Is maps the two kinds that predate the typed error onto their
// sentinels.
func (e *WalkError) Is(target error) bool {
	return target == ErrNoRoute && e.Kind == WalkNoEntry ||
		target == ErrRoutingLoop && e.Kind == WalkLoop
}

// Walk returns the channel path res prescribes from src to dst on net:
// the pair's PairPath override when it has one, the destination-based
// table walk otherwise. It is the only definition of a valid path outside
// the oracle's trusted base: every hop must exist, leave the node the
// walker stands at and be live in net (not merely in the network the
// table was built on), no node may repeat, and an override must be
// non-empty and end at dst. Failures are *WalkError.
//
// The path is written into buf[:0] and returned; with a buffer of
// sufficient capacity a successful walk allocates nothing. Walk keeps no
// state and may be called concurrently.
func Walk(net *graph.Network, res *Result, src, dst graph.NodeID, buf []graph.ChannelID) ([]graph.ChannelID, error) {
	return WalkUntil(net, res, src, dst, buf, nil, 0)
}

// WalkUntil is Walk with a stop mask for callers that walk many sources
// of one destination: a table walk ends at the first node v, src
// included, with settled[v] == stamp, and the hops up to v are returned.
// The table is destination-based, so the hops from v on are those of
// every earlier walk through v; a caller that sets settled[v] = stamp
// only for nodes of walks that succeeded validates each table entry once
// per destination instead of once per source. The node a walk ended at is
// the head of its last hop (src when there is none). A loop among
// unsettled nodes never meets a settled one and is reported as by Walk.
// PairPath overrides share no suffix and ignore the mask; a nil mask is
// Walk.
func WalkUntil(net *graph.Network, res *Result, src, dst graph.NodeID, buf []graph.ChannelID, settled []int32, stamp int32) ([]graph.ChannelID, error) {
	buf = buf[:0]
	if src == dst {
		return buf, nil
	}
	fail := func(at graph.NodeID, hop int, kind WalkKind) ([]graph.ChannelID, error) {
		return nil, &WalkError{Src: src, Dst: dst, At: at, Hop: hop, Kind: kind}
	}
	cur := src
	if p, ok := res.PairPath[PairKey(src, dst)]; ok {
		if len(p) == 0 {
			return fail(src, 0, WalkOverrideEmpty)
		}
		for i, c := range p {
			ch := net.Channel(c)
			if ch.From != cur {
				return fail(cur, i, WalkOverrideDiscontinuous)
			}
			if ch.Failed {
				return fail(cur, i, WalkFailedChannel)
			}
			cur = ch.To
			// Overrides are short: scanning the hops so far is an exact
			// revisit check that needs no memory.
			revisit := cur == src
			for _, b := range buf {
				revisit = revisit || net.Channel(b).To == cur
			}
			if revisit {
				return fail(cur, i+1, WalkLoop)
			}
			buf = append(buf, c)
		}
		if cur != dst {
			return fail(cur, len(p), WalkOverrideShort)
		}
		return buf, nil
	}
	// A loop-free walk takes fewer hops than net has nodes, so the hop
	// count is the loop test; only a walk that trips it pays for finding
	// the node that repeats.
	csr := net.CSRView()
	for budget := net.NumNodes(); cur != dst; {
		if settled != nil && settled[cur] == stamp {
			break
		}
		c := res.Table.Next(cur, dst)
		if c == graph.NoChannel {
			return fail(cur, len(buf), WalkNoEntry)
		}
		if csr.From[c] != cur {
			return fail(cur, len(buf), WalkWrongNode)
		}
		if csr.Failed[c] {
			return fail(cur, len(buf), WalkFailedChannel)
		}
		buf = append(buf, c)
		cur = csr.To[c]
		if len(buf) >= budget {
			seen := make([]bool, net.NumNodes())
			seen[src] = true
			for i, b := range buf {
				to := csr.To[b]
				if seen[to] {
					return fail(to, i+1, WalkLoop)
				}
				seen[to] = true
			}
		}
	}
	return buf, nil
}
