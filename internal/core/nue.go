// Package core implements Nue routing (Domke, Hoefler, Matsuoka, HPDC'16):
// a deadlock-free, oblivious, destination-based routing function that
// performs its path search inside the complete channel dependency graph of
// each virtual layer, so deadlock avoidance happens during path
// computation. Nue routes every topology with every number of virtual
// channels k >= 1, including k = 1.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/cdg"
	"repro/internal/centrality"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// Options configures Nue routing. The zero value names no partitioning
// strategy, which Route refuses with an error; start from DefaultOptions.
type Options struct {
	// Partition selects the destination partitioning strategy (§4.5).
	Partition partition.Strategy
	// Seed drives partitioning tie-breaks; runs are deterministic per
	// seed.
	Seed int64
	// CentralRoot selects the escape-path root by betweenness centrality
	// on the convex subgraph (§4.3); when false a deterministic arbitrary
	// destination switch is used (ablation).
	CentralRoot bool
	// Backtracking enables the local backtracking of §4.6.2, and with it
	// the §4.6.3 shortcuts through formerly isolated nodes. Without it,
	// every impasse falls back to the escape paths.
	Backtracking bool
	// NaiveCycleSearch disables the ω-numbering optimization (§4.6.1)
	// and runs a full acyclicity check per edge use; for ablation only.
	NaiveCycleSearch bool
	// Workers bounds the number of OS threads the engine uses: virtual
	// layers are routed by par.For on at most Workers goroutines, and the
	// betweenness pass for escape roots shards its sources over the same
	// budget. 0 means GOMAXPROCS (par.Workers); 1 is the sequential
	// engine. Layers are fully independent — each owns its complete CDG,
	// spanning tree and channel weights, and writes disjoint table
	// columns — and the betweenness reduction order is fixed, so the
	// result is bit-identical for every worker count.
	Workers int
	// Telemetry, when non-nil, receives runtime counters and per-layer
	// phase timings. Telemetry is observation-only: routing output is
	// bit-identical with it on or off, and a nil bundle (the default)
	// records nothing.
	Telemetry *telemetry.EngineMetrics
}

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{
		Partition:    partition.MultilevelKWay,
		CentralRoot:  true,
		Backtracking: true,
	}
}

// maxLayers is the most layers a route uses: 256, the width of
// routing.Result's DestLayer entries and of a virtual lane.
const maxLayers = 256

// Nue is the routing engine. It implements routing.Engine.
type Nue struct {
	opts Options
	// sources keeps the last traffic-source mask (sourceMask) for the
	// next route or repair of a network with the same node kinds. A
	// stored mask is never written, so concurrent layers and repairs
	// share it.
	sources atomic.Pointer[[]bool]
}

// New returns a Nue engine with the given options.
func New(opts Options) *Nue { return &Nue{opts: opts} }

// Name implements routing.Engine.
func (n *Nue) Name() string { return "nue" }

// Claims implements routing.Claimant: Nue is deadlock-free and
// connectivity-complete on every topology for any budget k >= 1
// (Lemmas 1-3) — the strongest claim in the registry, and the one the
// independent oracle is pointed at hardest.
func (n *Nue) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// Route computes deadlock-free destination-based forwarding tables toward
// dests using at most maxVCs virtual layers. Nue always succeeds on
// connected networks for any maxVCs >= 1 (Lemma 3). A budget above
// maxLayers is capped there: a destination's layer is a DestLayer byte
// and a virtual lane.
func (n *Nue) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("nue: need at least one virtual channel")
	}
	if len(dests) == 0 {
		return nil, errors.New("nue: empty destination set")
	}
	// Disconnected destinations (e.g. terminals orphaned by a switch
	// failure) cannot have paths; they keep their table column but are
	// not routed.
	routable := make([]graph.NodeID, 0, len(dests))
	for _, d := range dests {
		if net.Degree(d) > 0 {
			routable = append(routable, d)
		}
	}
	if len(routable) == 0 {
		return nil, errors.New("nue: no connected destinations")
	}
	tm := n.opts.Telemetry
	var partStart time.Time
	if tm != nil {
		partStart = time.Now()
	}
	rng := rand.New(rand.NewSource(n.opts.Seed))
	parts, err := partition.Split(net, routable, min(maxVCs, maxLayers), n.opts.Partition, rng)
	if err != nil {
		return nil, fmt.Errorf("nue: %w", err)
	}
	if tm != nil {
		tm.PartitionNanos.Add(time.Since(partStart).Nanoseconds())
	}

	table := routing.NewTable(net, dests)
	destLayer := make([]uint8, len(dests))
	isSource := n.sourceMask(net)

	// Each layer owns its complete CDG, escape tree and weights, and
	// writes disjoint table columns (the destinations are partitioned),
	// so layers can run concurrently with bit-identical results. Layer
	// seeds are drawn up front from the run's rng, so the per-layer
	// streams do not depend on scheduling order.
	layerStats := make([]Stats, len(parts))
	layerErrs := make([]error, len(parts))
	layerCDG := make([]uint64, len(parts))
	layerSeeds := make([]int64, len(parts))
	for li := range parts {
		layerSeeds[li] = rng.Int63()
	}
	// The worker budget is split between layer-level parallelism and the
	// per-layer betweenness sharding: with fewer layers than workers the
	// leftover workers speed up each layer's root search instead.
	workers := par.Workers(n.opts.Workers)
	bwWorkers := max(1, workers/len(parts))
	par.For(workers, len(parts), func(li int) {
		layerErrs[li] = n.routeLayer(net, table, destLayer, layerCDG, uint8(li), parts[li],
			isSource, &layerStats[li], layerSeeds[li], bwWorkers)
	})
	stats := &Stats{}
	for li := range parts {
		if layerErrs[li] != nil {
			return nil, fmt.Errorf("nue: layer %d: %w", li, layerErrs[li])
		}
		s := &layerStats[li]
		stats.EscapeFallbacks += s.EscapeFallbacks
		stats.IslandsResolved += s.IslandsResolved
		stats.CycleSearches += s.CycleSearches
		stats.BlockedEdges += s.BlockedEdges
		stats.EscapeDeps += s.EscapeDeps
		stats.DijkstraRuns += s.DijkstraRuns
		stats.ShortcutTakes += s.ShortcutTakes
		stats.BlockedSkips += s.BlockedSkips
		stats.EdgeUses += s.EdgeUses
	}
	if tm != nil {
		tm.Routes.Inc()
		tm.Layers.Add(int64(len(parts)))
		stats.report(tm)
	}
	return &routing.Result{
		Algorithm: "nue",
		Table:     table,
		VCs:       len(parts),
		DestLayer: destLayer,
		LayerCDG:  layerCDG,
		Stats: map[string]float64{
			"escape_fallbacks": float64(stats.EscapeFallbacks),
			"islands_resolved": float64(stats.IslandsResolved),
			"cycle_searches":   float64(stats.CycleSearches),
			"blocked_edges":    float64(stats.BlockedEdges),
			"escape_deps":      float64(stats.EscapeDeps),
			"dijkstra_runs":    float64(stats.DijkstraRuns),
			"shortcut_takes":   float64(stats.ShortcutTakes),
			"blocked_skips":    float64(stats.BlockedSkips),
			"edge_uses":        float64(stats.EdgeUses),
		},
	}, nil
}

// report publishes the run's aggregated counters into the telemetry
// bundle (one atomic add per counter, outside any hot path).
func (s *Stats) report(tm *telemetry.EngineMetrics) {
	tm.DijkstraRuns.Add(int64(s.DijkstraRuns))
	tm.EscapeFallbacks.Add(int64(s.EscapeFallbacks))
	tm.IslandsResolved.Add(int64(s.IslandsResolved))
	tm.ShortcutTakes.Add(int64(s.ShortcutTakes))
	tm.BlockedEncounters.Add(int64(s.BlockedSkips))
	tm.CycleSearches.Add(int64(s.CycleSearches))
	tm.EdgesBlocked.Add(int64(s.BlockedEdges))
	tm.EdgeUses.Add(int64(s.EdgeUses))
}

// routeLayer routes one virtual layer of a cold Route: its plan, a check
// that the plan's tree reaches every destination, and one algorithm2 pass
// with the escape paths marked and nothing kept. seed is the layer's own,
// and bwWorkers the betweenness worker budget for the root search.
func (n *Nue) routeLayer(net *graph.Network, table *routing.Table, destLayer []uint8, layerCDG []uint64,
	layer uint8, part []graph.NodeID, isSource []bool, stats *Stats, seed int64, bwWorkers int) error {

	tm := n.opts.Telemetry
	var phaseStart time.Time
	if tm != nil {
		phaseStart = time.Now()
	}
	plan, _, err := n.planLayer(net, part, Plan{}, seed, bwWorkers)
	var bwNanos int64
	if tm != nil {
		bwNanos = time.Since(phaseStart).Nanoseconds()
		tm.BetweennessNanos.Add(bwNanos)
		tm.LayerBetweennessNanos.Observe(bwNanos)
	}
	if err != nil {
		return err
	}
	// Route never hands its plans out, so the tree goes back to bfs's
	// free list once the layer is routed.
	defer plan.Tree.Release()
	for _, d := range part {
		if plan.Tree.Dist[d] < 0 {
			return fmt.Errorf("destination %d unreachable from root %d (network disconnected)", d, plan.Root)
		}
		destLayer[table.DestIndex(d)] = layer
	}
	if tm != nil {
		phaseStart = time.Now()
	}
	// With the escape paths marked and nothing kept the pass cannot be
	// refused: every impasse has the tree to fall back to.
	_, _, err = n.algorithm2(net, table, plan.Tree, part, nil, true, isSource, stats, &layerCDG[layer])
	if tm != nil {
		dijNanos := time.Since(phaseStart).Nanoseconds()
		tm.DijkstraNanos.Add(dijNanos)
		tm.LayerDijkstraNanos.Observe(dijNanos)
		if tm.Events != nil {
			tm.Events.Emit("engine_layer", map[string]int64{
				"layer":            int64(layer),
				"dests":            int64(len(part)),
				"dijkstra_runs":    int64(stats.DijkstraRuns),
				"escape_fallbacks": int64(stats.EscapeFallbacks),
				"betweenness_ns":   bwNanos,
				"dijkstra_ns":      dijNanos,
			})
		}
	}
	return err
}

// algorithm2 is the one implementation of Algorithm 2, lines 3-11: a cold
// layer of Route and every rung of RepairLayer run it, so it is the place
// for a print when probing the engine. In a fresh complete CDG of net it
// marks the escape paths of tree toward route (line 4; only with escape),
// seeds the dependencies of the kept destinations' columns of table, and
// routes every destination of route in order with Algorithm 1, writing
// its column and updating the channel weights (lines 5-11).
//
// ok is false, with a nil error, when the pass cannot complete as asked:
// without escape, at the first impasse only the (unmarked) tree could
// solve; with escape, when a kept column's dependencies close a cycle
// with the escape paths. The columns of route are then partly written.
// Counters are added to stats; digest, when non-nil, receives the
// StateDigest of the final CDG.
func (n *Nue) algorithm2(net *graph.Network, table *routing.Table, tree *bfs.Tree, route, kept []graph.NodeID,
	escape bool, isSource []bool, stats *Stats, digest *uint64) (seeded cdg.SeedStats, ok bool, err error) {

	d := cdg.NewComplete(net)
	defer d.Release()
	d.Naive = n.opts.NaiveCycleSearch
	if escape {
		stats.EscapeDeps += d.MarkEscapePaths(tree, route).Deps
	}
	for _, k := range kept {
		if net.Degree(k) == 0 {
			continue
		}
		st, serr := d.SeedRoute(k, func(v graph.NodeID) graph.ChannelID {
			return table.Next(v, k)
		})
		seeded.Channels += st.Channels
		seeded.Deps += st.Deps
		if serr != nil {
			if escape {
				return seeded, false, nil // conflicts with the escape orientation
			}
			// On a fresh CDG the kept routes of one layer cannot conflict
			// with each other; a refusal means the caller passed columns
			// that traverse failed channels or are discontinuous.
			return seeded, false, fmt.Errorf("kept routes unseedable: %w", serr)
		}
	}

	ls := newLayerState(net, d, tree, n.opts, isSource, stats)
	defer ls.release()
	for _, dest := range route {
		parent, fellBack := ls.routeDest(dest)
		if fellBack {
			if !escape {
				return seeded, false, nil // needs the escape paths
			}
			ls.fillTableFromTree(table, dest)
			ls.updateWeightsEscape(dest)
			continue
		}
		for v := 0; v < net.NumNodes(); v++ {
			c := parent[v]
			if c == graph.NoChannel || !net.IsSwitch(graph.NodeID(v)) {
				continue
			}
			// Recorded orientation: parent[v] points away from dest; the
			// traffic next hop is its reverse.
			table.Set(graph.NodeID(v), dest, net.Channel(c).Reverse)
		}
		ls.updateWeights(dest, parent)
	}
	stats.CycleSearches += d.CycleSearches
	stats.BlockedEdges += d.EdgesBlocked
	stats.EdgeUses += d.EdgeUses
	if !d.UsedAcyclic() {
		// Cannot happen if the CDG machinery is correct; guard anyway.
		return seeded, false, errors.New("internal error: used CDG became cyclic")
	}
	if digest != nil {
		*digest = d.StateDigest()
	}
	return seeded, true, nil
}

// Plan is one virtual layer's escape configuration (§4.3): the root its
// escape paths hang from and that root's spanning tree. The zero Plan
// (Tree == nil) is no plan.
type Plan struct {
	Root graph.NodeID
	Tree *bfs.Tree
}

// planLayer chooses the plan of a layer routing dests on net, for a cold
// layer and every repair rung alike. hint's root is kept (reused) if its
// fresh spanning tree reaches every destination; otherwise the root is the
// most central node of the destinations' convex subgraph, on bwWorkers
// betweenness workers, or in the ablation a random destination drawn from
// a source seeded with seed (so only the ablation pays for seeding one).
// A terminal root is hoisted to its switch.
func (n *Nue) planLayer(net *graph.Network, dests []graph.NodeID, hint Plan, seed int64, bwWorkers int) (plan Plan, reused bool, err error) {
	if hint.Tree != nil && net.Degree(hint.Root) > 0 {
		// A plan from a previous repair: its root stays usable whenever
		// churn since stayed outside its tree. Costs one BFS instead of a
		// Brandes betweenness pass.
		tree := bfs.SpanningTree(net, hint.Root)
		if slices.IndexFunc(dests, func(d graph.NodeID) bool { return tree.Dist[d] < 0 }) < 0 {
			return Plan{hint.Root, tree}, true, nil
		}
		tree.Release()
	}
	var root graph.NodeID
	if n.opts.CentralRoot {
		root = centrality.RootForDestinationsN(net, dests, bwWorkers)
	} else {
		root = dests[rand.New(rand.NewSource(seed)).Intn(len(dests))]
	}
	if root == graph.NoNode {
		return Plan{}, false, errors.New("no usable escape-path root")
	}
	if net.IsTerminal(root) && net.Degree(root) > 0 {
		// A terminal root works but wastes a hop.
		root = net.TerminalSwitch(root)
	}
	return Plan{root, bfs.SpanningTree(net, root)}, false, nil
}

// sourceMask returns the traffic-source indicator for weight updates:
// all terminals, or all nodes if the network has no terminals. The kept
// mask is returned when it matches net, a new one is built and kept
// otherwise; the caller must not write it.
func (n *Nue) sourceMask(net *graph.Network) []bool {
	all := net.NumTerminals() == 0
	isSource := func(i int) bool { return all || net.IsTerminal(graph.NodeID(i)) }
	if kept := n.sources.Load(); kept != nil && len(*kept) == net.NumNodes() {
		mask := *kept
		i := 0
		for i < len(mask) && mask[i] == isSource(i) {
			i++
		}
		if i == len(mask) {
			return mask
		}
	}
	mask := make([]bool, net.NumNodes())
	for i := range mask {
		mask[i] = isSource(i)
	}
	n.sources.Store(&mask)
	return mask
}

// fillTableFromTree routes every node toward dest over the spanning tree
// (escape-path fallback). A BFS over tree channels from dest yields each
// node's parent-toward-dest in O(|N|); the traversal runs on the layer's
// scratch so frequent fallbacks do not allocate.
func (ls *layerState) fillTableFromTree(table *routing.Table, dest graph.NodeID) {
	net, tree := ls.net, ls.tree
	visited := ls.seenScratch
	if cap(visited) < net.NumNodes() {
		visited = make([]bool, net.NumNodes())
		ls.seenScratch = visited
	} else {
		visited = visited[:net.NumNodes()]
		for i := range visited {
			visited[i] = false
		}
	}
	order := append(ls.orderScratch[:0], dest)
	visited[dest] = true
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, c := range ls.csr.Out(u) {
			if !tree.IsTreeChannel(c) {
				continue
			}
			v := ls.csr.To[c]
			if visited[v] {
				continue
			}
			visited[v] = true
			if net.IsSwitch(v) {
				table.Set(v, dest, net.Channel(c).Reverse)
			}
			order = append(order, v)
		}
	}
	ls.orderScratch = order[:0]
}
