package core

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cdg"
	"repro/internal/graph"
	"repro/internal/routing"
)

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
	// transition compatibility). When no repair compatible with them
	// exists they are re-routed too (rungs 3 and 4 of the ladder).
	Kept []graph.NodeID
	// RootHint, when HasRootHint is set, proposes the escape-path root,
	// skipping the betweenness-centrality search. Callers pass the root
	// of a previous repair whose escape tree the churn did not touch (the
	// tree still spans the surviving component, so the hint stays
	// usable). The hint is revalidated against Repair reachability, and
	// again when the repair widens to the whole layer; an invalid hint
	// silently falls back to the full centrality pass.
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
	// Rung is the rung of RepairLayer's ladder (1-4) the repair completed
	// on; 0 when no destination was routable and no pass ran. From rung 3
	// on the other fields describe the whole-layer repair alone.
	Rung int
}

// RepairLayer re-routes the Repair destinations of one virtual layer on
// the post-event network, keeping every Kept destination's paths intact
// if it can. Its ladder is up to four algorithm2 passes, each over a
// fresh complete CDG, until one completes:
//
//  1. narrow, no escape paths: the kept routes are seeded and Repair is
//     routed by the modified Dijkstra alone. Not committing to a fresh
//     spanning tree's escape orientation, which conflicts with the
//     surviving dependencies far more often than the Dijkstra itself
//     does, is why this goes first; it stops at the first impasse.
//  2. narrow, escape-backed: the tree's escape paths are marked first and
//     the kept dependencies seeded with cycle checks; a refusal means no
//     repair compatible with the surviving routes exists under this tree
//     (cf. Mendlovic & Matias, arXiv:2503.04583).
//  3. whole layer, no escape paths: Repair ++ Kept are re-routed, nothing
//     is seeded, and the root is chosen again for the widened set.
//  4. whole layer, escape-backed: a cold layer, which cannot be refused.
//
// An error is a hard failure (no usable root, unseedable kept columns, an
// internal inconsistency); the caller re-routes the fabric.
func (n *Nue) RepairLayer(req RepairRequest) (*RepairStats, error) {
	isSource := sourceMask(req.Net)
	rung := 0
	for _, whole := range [...]bool{false, true} {
		if whole {
			req.Repair = append(append([]graph.NodeID(nil), req.Repair...), req.Kept...)
			req.Kept = nil
		}
		scope, routable, err := n.repairRoot(req)
		if err != nil || len(routable) == 0 {
			return &scope, err
		}
		for _, escape := range [...]bool{false, true} {
			rung++
			stats := scope
			if escape {
				// The columns the pass without escape paths left half written.
				for _, dest := range routable {
					req.Table.ClearDest(dest)
				}
			}
			seeded, ok, err := n.algorithm2(req.Net, req.Table, scope.Tree, routable, req.Kept, escape, isSource, &stats.Stats, nil)
			stats.Seeded = seeded
			if err != nil {
				return &stats, fmt.Errorf("core: %w", err)
			}
			if ok {
				stats.Rung, stats.Routed = rung, len(routable)
				return &stats, nil
			}
		}
	}
	return nil, errors.New("core: internal error: whole-layer repair with escape paths refused")
}

// repairRoot clears the columns of req.Repair and chooses the escape root
// for them: the hinted root if its tree still reaches every repairable
// destination, else the most central node of their convex hull. It
// returns the stats of a repair that has routed nothing yet (Root, Tree,
// RootReused, Unreachable) and the destinations the tree reaches, in
// request order.
func (n *Nue) repairRoot(req RepairRequest) (stats RepairStats, reached []graph.NodeID, err error) {
	net := req.Net
	routable := make([]graph.NodeID, 0, len(req.Repair))
	for _, d := range req.Repair {
		req.Table.ClearDest(d)
		if net.Degree(d) > 0 {
			routable = append(routable, d)
		} else {
			stats.Unreachable++
		}
	}
	if len(routable) == 0 {
		return stats, nil, nil
	}
	if req.HasRootHint && req.RootHint != graph.NoNode && net.Degree(req.RootHint) > 0 {
		// A cached root from a previous repair: accept it iff its fresh
		// spanning tree still reaches every repairable destination, which
		// holds whenever churn since the caching stayed outside the old
		// escape tree. Costs one BFS instead of a Brandes betweenness pass.
		stats.Root, stats.Tree = req.RootHint, graph.SpanningTree(net, req.RootHint)
		stats.RootReused = true
		for _, d := range routable {
			if stats.Tree.Dist[d] < 0 {
				stats.RootReused = false
				break
			}
		}
	}
	if !stats.RootReused {
		// Repairs run one per layer (often concurrently, under the fabric
		// manager), so each keeps its betweenness pass single-threaded.
		rng := rand.New(rand.NewSource(n.opts.Seed))
		stats.Root = n.pickRoot(net, routable, rng, 1)
		if stats.Root == graph.NoNode {
			return stats, nil, errors.New("core: no usable escape-path root for repair")
		}
		stats.Tree = graph.SpanningTree(net, stats.Root)
	}
	reached = routable[:0]
	for _, d := range routable {
		if stats.Tree.Dist[d] >= 0 {
			reached = append(reached, d)
		} else {
			// Different component than the repair root; no path can exist
			// from the nodes the tree spans, so the column stays cleared.
			stats.Unreachable++
		}
	}
	return stats, reached, nil
}
