// Package oracle is an independent, first-principles correctness checker
// for finished routings. It certifies the three properties the Nue paper
// proves (Lemmas 1-3): full destination reachability over loop-free
// paths, deadlock freedom of the used channel-dependency relation per
// virtual layer, and validity of the virtual-channel budget and layer
// assignment.
//
// Unlike internal/routing/verify, which shares no goal but does share an
// ecosystem with the code under test, this package is built to be a
// *disjoint* trusted base: it imports only the graph and routing data
// types (internal/graph, internal/routing) and re-derives everything
// else from scratch — its own breadth-first component search, its own
// hop-by-hop table walker, its own dependency-graph construction and its
// own Tarjan SCC cycle search. It deliberately does NOT import
// internal/cdg, internal/core or internal/centrality, so a bug shared
// between the Nue engine and its CDG machinery cannot also blind the
// checker. On refutation it returns a concrete, replayable witness: the
// exact dependency cycle, or the exact (source, destination) pair left
// unreachable.
package oracle

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Options configures a certification run.
type Options struct {
	// Sources lists the traffic sources to walk. nil selects every
	// connected terminal, or every connected node when the network has
	// no terminals (the same convention the rest of the repository
	// uses, re-implemented here so the two layers stay comparable).
	Sources []graph.NodeID
	// MaxVCs, when positive, is the external virtual-channel budget the
	// result must respect (res.VCs <= MaxVCs). Zero skips the external
	// check; internal layer-assignment validity is always checked.
	MaxVCs int
}

// Certificate summarizes a successful certification (and carries
// whatever was measured before the first violation on failure).
type Certificate struct {
	// Pairs is the number of (source, destination) pairs walked.
	Pairs int
	// MaxHops is the longest path encountered.
	MaxHops int
	// Deps is the number of distinct dependency edges between
	// (channel, virtual lane) vertices induced by the walked paths.
	Deps int
	// Steps is the number of forwarding-table lookups the walks made
	// (override hops are not table lookups). Per destination it is
	// bounded by the nodes that reach it plus the pairs owed to it.
	Steps int
	// Layers is the effective number of virtual layers (res.VCs clamped
	// to >= 1).
	Layers int
	// Connected is true once every same-component pair walked to its
	// destination.
	Connected bool
	// DeadlockFree is true once the used-dependency graph was proven
	// acyclic.
	DeadlockFree bool
	// CastGroups, CastReceivers and CastUBM count the walked multicast
	// groups, their tree-served receivers and their UBM legs; CastEdges
	// counts traversed cast out-channels and CastVDeps the V-type
	// branch-contention dependencies added to the union graph. All zero
	// when the result carries no cast table.
	CastGroups, CastReceivers, CastUBM int
	CastEdges, CastVDeps               int
}

// Certify checks a finished routing from first principles and returns a
// certificate, or the first violation found. Violations are typed:
// *CycleError (with the witness dependency cycle), *UnreachableError,
// *LoopError, *PathError, *ShapeError and *BudgetError.
func Certify(net *graph.Network, res *routing.Result, opt Options) (*Certificate, error) {
	cert := &Certificate{Layers: effectiveLayers(res)}
	if err := checkShape(net, res, cert); err != nil {
		return cert, err
	}
	sources := opt.Sources
	if sources == nil {
		sources = defaultSources(net)
	}
	dg := newDepGraph(net.NumChannels(), cert.Layers)
	if err := walkPairs(net, res, sources, cert, dg); err != nil {
		return cert, err
	}
	cert.Connected = true
	// Cast trees contribute their T- and V-type dependencies to the same
	// graph, so the Tarjan pass below decides deadlock freedom over the
	// unicast+cast UNION. Structural tree violations are deferred behind
	// the cycle search: a cyclic cast graph is refuted with a concrete
	// witness, not a shape complaint.
	var castIssue error
	if res.Cast != nil {
		var err error
		castIssue, err = walkCast(net, res, cert, dg)
		if err != nil {
			return cert, err
		}
	}
	cert.Deps = dg.numDeps()
	if cycle := dg.findCycle(); cycle != nil {
		return cert, &CycleError{Witness: dg.witness(net, cycle)}
	}
	cert.DeadlockFree = true
	if castIssue != nil {
		return cert, castIssue
	}
	if opt.MaxVCs > 0 && cert.Layers > opt.MaxVCs {
		return cert, &BudgetError{Used: cert.Layers, Budget: opt.MaxVCs}
	}
	return cert, nil
}

// effectiveLayers clamps res.VCs the way the whole repository treats it:
// zero or negative means a single layer.
func effectiveLayers(res *routing.Result) int {
	if res.VCs < 1 {
		return 1
	}
	return res.VCs
}

// defaultSources re-implements the repository's source convention from
// scratch: connected terminals, else connected nodes.
func defaultSources(net *graph.Network) []graph.NodeID {
	var out []graph.NodeID
	if net.NumTerminals() > 0 {
		for n := 0; n < net.NumNodes(); n++ {
			id := graph.NodeID(n)
			if net.IsTerminal(id) && len(net.Out(id)) > 0 {
				out = append(out, id)
			}
		}
		return out
	}
	for n := 0; n < net.NumNodes(); n++ {
		if id := graph.NodeID(n); len(net.Out(id)) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// checkShape validates the structural invariants of the layer
// assignment before any path is walked.
func checkShape(net *graph.Network, res *routing.Result, cert *Certificate) error {
	if res.Table == nil {
		return &ShapeError{Reason: "result has no forwarding table"}
	}
	if res.DestLayer != nil && res.PairLayer != nil {
		return &ShapeError{Reason: "both DestLayer and PairLayer are set; at most one layer scheme is allowed"}
	}
	nd := len(res.Table.Dests())
	if res.DestLayer != nil {
		if len(res.DestLayer) != nd {
			return &ShapeError{Reason: fmt.Sprintf("DestLayer has %d entries for %d destinations", len(res.DestLayer), nd)}
		}
		// Static destination layers must fit the declared VC usage
		// unless a per-hop SL2VL mapping translates them down.
		if res.SLToVL == nil {
			for i, l := range res.DestLayer {
				if int(l) >= cert.Layers {
					return &BudgetError{Used: int(l) + 1, Budget: cert.Layers,
						Detail: fmt.Sprintf("destination %d assigned layer %d", res.Table.Dests()[i], l)}
				}
			}
		}
	}
	if res.PairLayer != nil {
		if len(res.PairLayer) != net.NumNodes() {
			return &ShapeError{Reason: fmt.Sprintf("PairLayer has %d rows for %d nodes", len(res.PairLayer), net.NumNodes())}
		}
		for n, row := range res.PairLayer {
			if row == nil {
				continue
			}
			if len(row) != nd {
				return &ShapeError{Reason: fmt.Sprintf("PairLayer row %d has %d entries for %d destinations", n, len(row), nd)}
			}
			if res.SLToVL == nil {
				for i, l := range row {
					if int(l) >= cert.Layers {
						return &BudgetError{Used: int(l) + 1, Budget: cert.Layers,
							Detail: fmt.Sprintf("pair (%d, %d) assigned layer %d", n, res.Table.Dests()[i], l)}
					}
				}
			}
		}
	}
	return nil
}

// walkAll follows the routing hop by hop for every (source, destination)
// pair owed to a destination on lane (allLanes: to any destination),
// detecting missing routes and forwarding loops and feeding every
// consecutive channel pair into the used-dependency graph. A routing owes
// paths only to nodes that can actually get to the destination: on duplex
// networks that is its component, but one-way faults (graph.SetHalfFailed)
// break the symmetry, so reach comes from sweeps over REVERSED channels.
func (w *tableWalker) walkAll(sources []graph.NodeID, reach *reachClasses, lane int) error {
	net, res, cert := w.net, w.res, w.cert
	for i, d := range res.Table.Dests() {
		if lane != allLanes && int(res.DestLayer[i]) != lane {
			continue
		}
		if len(net.Out(d)) == 0 {
			continue // destination disconnected by faults; no path owed
		}
		reaches := reach.of(d)
		w.stamp++ // no suffix is shared between destinations
		for _, s := range sources {
			if s == d || !reaches[s] {
				continue
			}
			var err error
			var hops int
			if p := explicitPath(res, s, d); p != nil {
				hops, err = walkExplicit(net, res, s, d, p, w.dg)
			} else {
				hops, err = w.walk(s, d)
			}
			if err != nil {
				return err
			}
			cert.Pairs++
			if hops > cert.MaxHops {
				cert.MaxHops = hops
			}
		}
	}
	return nil
}

// explicitPath returns the source-routed override for (s, d), if any.
func explicitPath(res *routing.Result, s, d graph.NodeID) []graph.ChannelID {
	if res.PairPath == nil {
		return nil
	}
	return res.PairPath[routing.PairKey(s, d)]
}

// tableWalker is the oracle's own walker over the destination-based
// table. Because the table is destination-based, the hops from a node v
// to a destination d are the same whatever the source, so with the memo
// on each table entry is validated once per destination instead of once
// per source: a walk stops at the first settled node, records the one
// dependency that crosses the junction, and takes the rest of its hop
// count from depth. The argument that nothing is missed: a node is
// settled only after a walk through it reached d with every check
// passed, so everything from a settled node on is validated and in the
// dependency graph; the nodes a walk steps through are unsettled, so they
// cannot recur beyond the junction and the per-walk loop marks cover
// every possible revisit; and a failing walk settles nothing.
type tableWalker struct {
	net  *graph.Network
	res  *routing.Result
	cert *Certificate // Steps counts the walker's table lookups
	dg   *depGraph

	// onPath[v] == pair: v is on the walk in progress. pair advances once
	// per walk and is 64 bits wide so that no pair count can wrap it.
	onPath []int64
	pair   int64

	// settled[v] == stamp: the table path from v to the current
	// destination is validated and recorded for service level sl and is
	// depth[v] hops long. stamp advances per destination (walkAll) and
	// whenever sl changes between two sources of one destination. A nil
	// settled turns the memo off: every walk runs to its destination.
	settled []int64
	stamp   int64
	sl      uint8
	depth   []int32
	prefix  []graph.NodeID // nodes stepped through by the walk in progress
}

func newTableWalker(net *graph.Network, res *routing.Result, cert *Certificate, dg *depGraph, memo bool) *tableWalker {
	w := &tableWalker{net: net, res: res, cert: cert, dg: dg, onPath: make([]int64, net.NumNodes())}
	if memo {
		w.settled = make([]int64, net.NumNodes())
		w.depth = make([]int32, net.NumNodes())
	}
	return w
}

// walk follows the destination-based table from s towards d, validating
// every hop it takes and recording dependencies, and returns the hop
// count of the whole path s -> d.
func (w *tableWalker) walk(s, d graph.NodeID) (int, error) {
	net, res, dg := w.net, w.res, w.dg
	sl := res.Layer(s, d)
	if sl != w.sl {
		// Lanes, and so dependencies and budget checks, depend on the
		// service level: what is settled for one is not for another.
		w.sl = sl
		w.stamp++
	}
	w.pair++
	w.prefix = w.prefix[:0]
	cur := s
	prev := graph.NoChannel
	var prevVL uint8
	hops := 0
	w.onPath[cur] = w.pair
	for cur != d {
		if w.settled != nil && w.settled[cur] == w.stamp {
			break
		}
		c := res.Table.Next(cur, d)
		w.cert.Steps++
		if c == graph.NoChannel {
			return hops, &UnreachableError{Src: s, Dst: d, At: cur}
		}
		ch := net.Channel(c)
		if ch.Failed {
			return hops, &PathError{Src: s, Dst: d, Hop: hops, Reason: fmt.Sprintf("table entry at node %d uses failed channel %d", cur, c)}
		}
		if ch.From != cur {
			return hops, &PathError{Src: s, Dst: d, Hop: hops, Reason: fmt.Sprintf("table entry at node %d is channel (%d,%d)", cur, ch.From, ch.To)}
		}
		vl, err := laneOf(res, sl, c, dg.layers, s, d, hops)
		if err != nil {
			return hops, err
		}
		if prev != graph.NoChannel {
			dg.add(prev, prevVL, c, vl)
		}
		w.prefix = append(w.prefix, cur)
		prev, prevVL = c, vl
		cur = ch.To
		hops++
		if w.onPath[cur] == w.pair {
			return hops, &LoopError{Src: s, Dst: d, Repeat: cur}
		}
		w.onPath[cur] = w.pair
	}
	if cur != d {
		// Joined an earlier walk at the settled node cur: its entry and
		// lane were validated then; only the dependency across the
		// junction can be new.
		if prev != graph.NoChannel {
			c := res.Table.Next(cur, d)
			w.cert.Steps++
			dg.add(prev, prevVL, c, res.VL(sl, c))
		}
		hops += int(w.depth[cur])
	}
	if w.settled != nil {
		for i, v := range w.prefix {
			w.settled[v] = w.stamp
			w.depth[v] = int32(hops - i)
		}
	}
	return hops, nil
}

// walkExplicit validates a source-routed override path end to end.
func walkExplicit(net *graph.Network, res *routing.Result, s, d graph.NodeID, p []graph.ChannelID, dg *depGraph) (int, error) {
	if len(p) == 0 {
		return 0, &PathError{Src: s, Dst: d, Hop: 0, Reason: "empty explicit path"}
	}
	sl := res.Layer(s, d)
	cur := s
	seen := map[graph.NodeID]bool{s: true}
	prev := graph.NoChannel
	var prevVL uint8
	for i, c := range p {
		ch := net.Channel(c)
		if ch.Failed {
			return i, &PathError{Src: s, Dst: d, Hop: i, Reason: fmt.Sprintf("explicit path uses failed channel %d", c)}
		}
		if ch.From != cur {
			return i, &PathError{Src: s, Dst: d, Hop: i, Reason: fmt.Sprintf("explicit path discontinuous: channel %d starts at %d, walk is at %d", c, ch.From, cur)}
		}
		vl, err := laneOf(res, sl, c, dg.layers, s, d, i)
		if err != nil {
			return i, err
		}
		if prev != graph.NoChannel {
			dg.add(prev, prevVL, c, vl)
		}
		prev, prevVL = c, vl
		cur = ch.To
		if seen[cur] {
			return i, &LoopError{Src: s, Dst: d, Repeat: cur}
		}
		seen[cur] = true
	}
	if cur != d {
		return len(p), &PathError{Src: s, Dst: d, Hop: len(p), Reason: fmt.Sprintf("explicit path ends at node %d", cur)}
	}
	return len(p), nil
}

// laneOf resolves the virtual lane a packet with service level sl
// occupies on channel c and checks it against the layer count — a lane
// outside the declared budget is a hard violation, not something to
// clamp away.
func laneOf(res *routing.Result, sl uint8, c graph.ChannelID, layers int, s, d graph.NodeID, hop int) (uint8, error) {
	vl := res.VL(sl, c)
	if int(vl) >= layers {
		return 0, &BudgetError{Used: int(vl) + 1, Budget: layers,
			Detail: fmt.Sprintf("path %d -> %d occupies VL %d on channel %d (hop %d)", s, d, vl, c, hop)}
	}
	return vl, nil
}
