// Package bfs is breadth-first search over a graph.Network: hop
// distances, connectivity and the BFS spanning trees that Nue's escape
// paths (§4.3) and Up*/Down* hang from. The table certifiers do not
// import it: their trusted base is graph and routing alone.
package bfs

import (
	"repro/internal/freelist"
	"repro/internal/graph"
)

// Result holds the outcome of a breadth-first search.
type Result struct {
	// Dist[n] is the hop distance from the source, or -1 if unreachable.
	Dist []int32
	// Parent[n] is the channel (parent(n), n) used to reach n, or
	// NoChannel for the source and unreachable nodes.
	Parent []graph.ChannelID
	// Order lists reached nodes in visit order, starting with the source.
	Order []graph.NodeID
}

// Forward runs a breadth-first search from src over non-failed channels.
func Forward(g *graph.Network, src graph.NodeID) *Result { return search(g, src, false) }

// Reverse runs a breadth-first search from src over REVERSED
// non-failed channels: Dist[n] is the hop distance from n TO src, and
// Parent[n] is the channel (n, child(n)) taken on a shortest n -> src
// path. On duplex networks it reaches the same component as Forward; the
// distinction matters once one-way faults (SetHalfFailed) break link
// symmetry.
func Reverse(g *graph.Network, src graph.NodeID) *Result { return search(g, src, true) }

// search runs a breadth-first search into a new Result.
func search(g *graph.Network, src graph.NodeID, reverse bool) *Result {
	n := g.NumNodes()
	res := &Result{
		Dist:   make([]int32, n),
		Parent: make([]graph.ChannelID, n),
		Order:  make([]graph.NodeID, 0, n),
	}
	res.Order = walk(g, src, reverse, res.Dist, res.Parent, res.Order)
	return res
}

// walk fills dist and parent (one entry per node of g) from src and
// returns the visit order appended to order. It visits nodes in the
// order of their out-channels (in-channels when reverse), the order the
// spanning trees, and so the tables, are built from.
func walk(g *graph.Network, src graph.NodeID, reverse bool, dist []int32, parent []graph.ChannelID, order []graph.NodeID) []graph.NodeID {
	for i := range dist {
		dist[i] = -1
		parent[i] = graph.NoChannel
	}
	dist[src] = 0
	order = append(order, src)
	for head := 0; head < len(order); head++ {
		u := order[head]
		adj := g.Out(u)
		if reverse {
			adj = g.In(u)
		}
		for _, c := range adj {
			ch := g.Channel(c)
			v := ch.To
			if reverse {
				v = ch.From
			}
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = c
				order = append(order, v)
			}
		}
	}
	return order
}

// Connected reports whether all nodes that have at least one channel are
// mutually reachable. Isolated stubs (e.g. a failed switch with all
// channels removed) are ignored.
func Connected(g *graph.Network) bool {
	var src graph.NodeID = graph.NoNode
	active := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(graph.NodeID(i)) > 0 {
			active++
			if src == graph.NoNode {
				src = graph.NodeID(i)
			}
		}
	}
	if active == 0 {
		return true
	}
	res := Forward(g, src)
	reached := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(graph.NodeID(i)) > 0 && res.Dist[i] >= 0 {
			reached++
		}
	}
	return reached == active
}

// trees recycles spanning trees: Nue builds one per virtual layer and per
// repair rung, each sized by the whole network, and hands back the ones
// it drops with Release.
var trees freelist.List[Tree]

// SpanningTree computes a BFS spanning tree of g rooted at root. It
// returns tree[n] = channel (parent(n), n) for every reached node, with
// tree[root] = NoChannel, plus the visit order. The "spanning tree" is
// over duplex links: if (p,n) is a tree channel, its reverse (n,p) is a
// tree channel too (callers query via IsTreeChannel on the returned Tree).
// The tree is drawn from a free list; a caller that drops it may hand it
// back with Release, one that keeps it simply keeps it.
func SpanningTree(g *graph.Network, root graph.NodeID) *Tree {
	n := g.NumNodes()
	t := trees.Get()
	t.g, t.Root = g, root
	t.Dist = freelist.Grow(t.Dist, n)
	t.Parent = freelist.Grow(t.Parent, n)
	t.Order = walk(g, root, false, t.Dist, t.Parent, freelist.Grow(t.Order, n)[:0])
	t.member = freelist.Grow(t.member, g.NumChannels())
	clear(t.member)
	for _, v := range t.Order {
		if c := t.Parent[v]; c != graph.NoChannel {
			t.member[c] = true
			t.member[g.Channel(c).Reverse] = true
		}
	}
	return t
}

// Release hands t back to the free list for the next SpanningTree. No
// one may use t, or a slice of it, afterwards. Releasing nil does
// nothing.
func (t *Tree) Release() {
	if t == nil {
		return
	}
	t.g = nil
	trees.Put(t)
}

// Tree is a rooted spanning tree of a Network.
type Tree struct {
	g    *graph.Network
	Root graph.NodeID
	// Parent[n] is the channel (parent(n), n), NoChannel for root and
	// unreached nodes.
	Parent []graph.ChannelID
	// Dist[n] is the depth of n, -1 if unreached.
	Dist []int32
	// Order is a BFS order (parents precede children).
	Order []graph.NodeID
	// member marks tree channels, both directions of every tree link.
	member []bool
}

// IsTreeChannel reports whether channel c belongs to the tree (in either
// direction of its duplex link).
func (t *Tree) IsTreeChannel(c graph.ChannelID) bool { return t.member[c] }

// ParentNode returns the parent of n in the tree, or NoNode for the root
// and unreached nodes.
func (t *Tree) ParentNode(n graph.NodeID) graph.NodeID {
	c := t.Parent[n]
	if c == graph.NoChannel {
		return graph.NoNode
	}
	return t.g.Channel(c).From
}

// TreePath returns the channels of the unique tree path from a to b, in
// travel order. Returns nil if either node is unreached.
func (t *Tree) TreePath(a, b graph.NodeID) []graph.ChannelID {
	if t.Dist[a] < 0 || t.Dist[b] < 0 {
		return nil
	}
	if a == b {
		return []graph.ChannelID{}
	}
	// Lift both endpoints to their lowest common ancestor.
	var upA []graph.ChannelID   // channels a -> lca (travel order)
	var downB []graph.ChannelID // channels b -> lca direction; reversed later
	x, y := a, b
	for t.Dist[x] > t.Dist[y] {
		down := t.Parent[x]
		upA = append(upA, t.g.Channel(down).Reverse)
		x = t.g.Channel(down).From
	}
	for t.Dist[y] > t.Dist[x] {
		down := t.Parent[y]
		downB = append(downB, down)
		y = t.g.Channel(down).From
	}
	for x != y {
		dx, dy := t.Parent[x], t.Parent[y]
		upA = append(upA, t.g.Channel(dx).Reverse)
		downB = append(downB, dy)
		x = t.g.Channel(dx).From
		y = t.g.Channel(dy).From
	}
	// downB currently lists channels (parent->child) from lca side toward
	// b in reverse travel order; append them reversed.
	for i := len(downB) - 1; i >= 0; i-- {
		upA = append(upA, downB[i])
	}
	return upA
}
