package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cdg"
	"repro/internal/graph"
	"repro/internal/routing"
)

// ErrRepairInfeasible reports that the surviving dependencies of the kept
// destinations conflict with the escape paths required to repair the
// broken ones — the existence condition for an incremental repair does
// not hold (cf. Mendlovic & Matias, arXiv:2503.04583), so the caller must
// widen the repair (typically to the whole layer, which always succeeds).
var ErrRepairInfeasible = errors.New("core: incremental repair infeasible for this layer")

// RepairRequest scopes one layer's incremental repair.
type RepairRequest struct {
	// Net is the post-event network.
	Net *graph.Network
	// Table is the forwarding table being transitioned, bound to Net. The
	// columns of Repair destinations are overwritten in place; all other
	// columns must already be valid on Net (no failed channels).
	Table *routing.Table
	// Repair lists the destinations of this layer whose paths must be
	// recomputed. Their columns are cleared first; destinations that are
	// disconnected stay cleared.
	Repair []graph.NodeID
	// Kept lists the layer's remaining destinations. Their surviving
	// channel dependencies are seeded into the repair CDG so the union of
	// the old and new configuration stays deadlock-free (UPR-style
	// transition compatibility).
	Kept []graph.NodeID
	// RootHint, when HasRootHint is set, proposes the escape-path root,
	// skipping the betweenness-centrality search. Callers pass the root
	// of a previous repair whose escape tree the churn did not touch (the
	// tree still spans the surviving component, so the hint stays
	// usable). The hint is revalidated against Repair reachability; an
	// invalid hint silently falls back to the full centrality pass.
	RootHint    graph.NodeID
	HasRootHint bool
}

// RepairStats reports one layer repair.
type RepairStats struct {
	Stats
	// Seeded counts the surviving old-configuration dependencies re-marked
	// in the fresh complete CDG.
	Seeded cdg.SeedStats
	// Routed counts repair destinations actually re-routed; Unreachable
	// those left without paths (disconnected from the repair root).
	Routed, Unreachable int
	// Root is the escape-path root the repair used; Tree its spanning
	// tree over the post-event network. Callers cache the pair and pass
	// Root back as RootHint while churn stays outside the tree.
	Root graph.NodeID
	Tree *graph.Tree
	// RootReused reports that RootHint was accepted, skipping the
	// betweenness pass.
	RootReused bool
}

// RepairLayer re-routes the Repair destinations of one virtual layer on
// the post-event network, keeping every Kept destination's paths intact.
// It is Nue's modified Dijkstra run inside a complete CDG that is seeded
// with (a) the escape paths of a fresh spanning tree over the surviving
// network and (b) the channel dependencies still induced by the kept
// routes, so the repaired layer is deadlock-free jointly with the routes
// it did not touch. Returns ErrRepairInfeasible when (a) and (b) conflict.
func (n *Nue) RepairLayer(req RepairRequest) (*RepairStats, error) {
	net := req.Net
	stats := &RepairStats{}
	for _, d := range req.Repair {
		req.Table.ClearDest(d)
	}
	routable := make([]graph.NodeID, 0, len(req.Repair))
	for _, d := range req.Repair {
		if net.Degree(d) > 0 {
			routable = append(routable, d)
		} else {
			stats.Unreachable++
		}
	}
	if len(routable) == 0 {
		return stats, nil
	}
	root := graph.NoNode
	var tree *graph.Tree
	if req.HasRootHint && req.RootHint != graph.NoNode && net.Degree(req.RootHint) > 0 {
		// A cached root from a previous repair: accept it iff its fresh
		// spanning tree still reaches every repairable destination, which
		// holds whenever churn since the caching stayed outside the old
		// escape tree. Costs one BFS instead of a Brandes betweenness pass.
		hintTree := graph.SpanningTree(net, req.RootHint)
		ok := true
		for _, d := range routable {
			if hintTree.Dist[d] < 0 {
				ok = false
				break
			}
		}
		if ok {
			root, tree = req.RootHint, hintTree
			stats.RootReused = true
		}
	}
	if root == graph.NoNode {
		// Repairs run one per layer (often concurrently, under the fabric
		// manager), so each keeps its betweenness pass single-threaded.
		rng := rand.New(rand.NewSource(n.opts.Seed))
		root = n.pickRoot(net, routable, rng, 1)
		if root == graph.NoNode {
			return stats, errors.New("core: no usable escape-path root for repair")
		}
		tree = graph.SpanningTree(net, root)
	}
	stats.Root, stats.Tree = root, tree
	reached := routable[:0]
	for _, d := range routable {
		if tree.Dist[d] >= 0 {
			reached = append(reached, d)
		} else {
			// Different component than the repair root; no path can exist
			// from the nodes the tree spans, so the column stays cleared.
			stats.Unreachable++
		}
	}
	routable = reached
	if len(routable) == 0 {
		return stats, nil
	}

	// Phase 1 — optimistic: seed the kept routes into a fresh complete CDG
	// (they are mutually acyclic, being a subset of one valid
	// configuration) and route the repair destinations with Nue's modified
	// Dijkstra alone, allowing no escape fallback. This avoids committing
	// to a fresh spanning tree's escape orientation, which would conflict
	// with the surviving dependencies far more often than the Dijkstra
	// itself does.
	if ok, err := n.repairAttempt(req, tree, routable, stats, false); err != nil {
		return stats, err
	} else if ok {
		return stats, nil
	}
	// Phase 2 — escape-backed: re-clear and retry with the tree's escape
	// paths marked first, so impasses can fall back to tree routing. The
	// kept dependencies are then seeded with cycle checks; a refusal means
	// no repair compatible with this layer's surviving routes exists.
	for _, dest := range routable {
		req.Table.ClearDest(dest)
	}
	*stats = RepairStats{Unreachable: stats.Unreachable, Root: stats.Root, Tree: stats.Tree, RootReused: stats.RootReused}
	if ok, err := n.repairAttempt(req, tree, routable, stats, true); err != nil {
		return stats, err
	} else if !ok {
		return stats, fmt.Errorf("%w: escape paths conflict with surviving routes", ErrRepairInfeasible)
	}
	return stats, nil
}

// repairAttempt runs one repair pass over routable. With escape=false it
// reports ok=false when any destination needs an escape fallback (the
// tree is unmarked, so falling back is not legal); with escape=true a
// seeding refusal reports ok=false (repair infeasible). Callers must
// re-clear the repair columns between attempts.
func (n *Nue) repairAttempt(req RepairRequest, tree *graph.Tree, routable []graph.NodeID, stats *RepairStats, escape bool) (ok bool, err error) {
	net := req.Net
	d := cdg.NewComplete(net)
	defer d.Release()
	d.Naive = n.opts.NaiveCycleSearch
	if escape {
		ep := d.MarkEscapePaths(tree, routable)
		stats.EscapeDeps += ep.Deps
	}
	for _, kept := range req.Kept {
		if net.Degree(kept) == 0 {
			continue
		}
		st, serr := d.SeedRoute(kept, func(v graph.NodeID) graph.ChannelID {
			return req.Table.Next(v, kept)
		})
		stats.Seeded.Channels += st.Channels
		stats.Seeded.Deps += st.Deps
		if serr != nil {
			if escape {
				return false, nil // conflicts with the escape orientation
			}
			// On a fresh CDG the kept routes of one layer cannot conflict
			// with each other; a refusal means the caller passed columns
			// that traverse failed channels or are discontinuous.
			return false, fmt.Errorf("core: kept routes unseedable: %w", serr)
		}
	}

	ls := newLayerState(net, d, tree, n.opts, sourceMask(net), &stats.Stats)
	defer ls.release()
	for _, dest := range routable {
		parent, fellBack := ls.routeDest(dest)
		if fellBack {
			if !escape {
				return false, nil // needs the escape paths; retry with them
			}
			ls.fillTableFromTree(req.Table, dest)
			ls.updateWeightsEscape(dest)
			stats.Routed++
			continue
		}
		for v := 0; v < net.NumNodes(); v++ {
			c := parent[v]
			if c == graph.NoChannel || !net.IsSwitch(graph.NodeID(v)) {
				continue
			}
			req.Table.Set(graph.NodeID(v), dest, net.Channel(c).Reverse)
		}
		ls.updateWeights(dest, parent)
		stats.Routed++
	}
	stats.CycleSearches += d.CycleSearches
	stats.BlockedEdges += d.EdgesBlocked
	stats.EdgeUses += d.EdgeUses
	if !d.UsedAcyclic() {
		return false, errors.New("core: internal error: repaired CDG became cyclic")
	}
	return true, nil
}
