package cdg

import (
	"repro/internal/bfs"
	"repro/internal/freelist"
	"repro/internal/graph"
)

// EscapePaths is the result of marking a layer's escape paths (Definition
// 7) inside its complete CDG.
type EscapePaths struct {
	// Tree is the spanning tree the escape paths derive from.
	Tree *bfs.Tree
	// Group is the ω identifier of the escape-path subgraph.
	Group int32
	// Channels counts tree channels marked used, Deps counts channel
	// dependencies marked used (the "initial channel dependencies" of
	// §4.3).
	Channels int
	Deps     int
}

// MarkEscapePaths marks the escape paths for the destination set dests
// within the complete CDG, rooted at the given spanning tree, and returns
// their description. All marked elements share one ω group; the escape
// subgraph of a tree is always acyclic.
//
// Orientation: Nue records dependencies from the destination outward (see
// package comment), so a dependency ((x,y),(y,z)) over tree channels is
// part of the escape paths iff some destination lies on the x-side of the
// tree link {x,y}; a tree channel (x,y) is escape-used under the same
// condition. This is the channel-reversal image of the traffic-oriented
// escape paths "all nodes -> destinations" of Definition 7.
func (g *Graph) MarkEscapePaths(tree *bfs.Tree, dests []graph.NodeID) *EscapePaths {
	net := g.net
	g.isDest = freelist.Grow(g.isDest, net.NumNodes())
	clear(g.isDest)
	isDest := g.isDest
	total := 0
	for _, d := range dests {
		if !isDest[d] {
			isDest[d] = true
			total++
		}
	}
	// Destination count per subtree, computed leaf-to-root over the BFS
	// order of the tree.
	g.destCnt = freelist.Grow(g.destCnt, net.NumNodes())
	clear(g.destCnt)
	cnt := g.destCnt
	for _, n := range tree.Order {
		if isDest[n] {
			cnt[n]++
		}
	}
	for i := len(tree.Order) - 1; i >= 1; i-- {
		n := tree.Order[i]
		if p := tree.ParentNode(n); p != graph.NoNode {
			cnt[p] += cnt[n]
		}
	}
	// destOnTailSide(c) for a tree channel c=(x,y): is some destination in
	// the component of the tree containing x when the link {x,y} is cut?
	destOnTailSide := func(c graph.ChannelID) bool {
		ch := net.Channel(c)
		x, y := ch.From, ch.To
		if tree.ParentNode(x) == y {
			return cnt[x] > 0
		}
		// y is the child side; x's side is everything else.
		return int32(total)-cnt[y] > 0
	}

	ep := &EscapePaths{Tree: tree, Group: g.newGroup()}
	// Mark channels.
	for c := 0; c < net.NumChannels(); c++ {
		cid := graph.ChannelID(c)
		if !tree.IsTreeChannel(cid) || net.Channel(cid).Failed {
			continue
		}
		if destOnTailSide(cid) {
			if g.chOmega[cid] != omegaUnused {
				panic("cdg: escape paths must be marked on a fresh complete CDG")
			}
			g.chOmega[cid] = ep.Group
			ep.Channels++
		}
	}
	// Mark dependencies: for every used tree channel (x,y), every tree
	// channel (y,z) with z != x continues an escape path.
	for c := 0; c < net.NumChannels(); c++ {
		cp := graph.ChannelID(c)
		if g.chOmega[cp] != ep.Group || !tree.IsTreeChannel(cp) {
			continue
		}
		base := g.start[cp]
		for i, cq := range g.Succ(cp) {
			if !tree.IsTreeChannel(cq) {
				continue
			}
			// The continuation channel is used by the same escape path,
			// so it must itself be escape-marked; assert via state.
			if g.chOmega[cq] != ep.Group {
				continue
			}
			g.edOmega[base+int32(i)] = ep.Group
			g.mustAddEdge(cp, cq)
			ep.Deps++
		}
	}
	return ep
}
