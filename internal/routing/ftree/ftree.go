// Package ftree implements fat-tree routing in the spirit of Zahavi et
// al.: upward port selection spreads destinations across uplinks, the
// downward phase follows the unique ancestor paths. Paths take at most one
// up-phase and one down-phase, so the induced CDG is acyclic with a single
// layer. The engine requires level metadata (topology.TreeMeta) and
// refuses networks where up-routing cannot reach an ancestor of the
// destination — i.e. it is topology-aware, exactly like OpenSM's ftree,
// and "fails" on non-fat-trees (paper Fig. 10 marks such combinations
// inapplicable).
package ftree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dial"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Engine is the fat-tree routing engine. Level maps every switch to its
// tier (0 = leaf).
type Engine struct {
	Level map[graph.NodeID]int
}

// Name implements routing.Engine.
func (Engine) Name() string { return "ftree" }

// Claims implements routing.Claimant: fat-tree up/down routing never
// turns downward-then-upward, so one virtual layer suffices.
func (Engine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// Route implements routing.Engine. The result uses a single layer.
func (e Engine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("ftree: need at least one virtual channel")
	}
	if e.Level == nil {
		return nil, errors.New("ftree: level metadata required (not a generated fat tree)")
	}
	table := routing.NewTable(net, dests)
	unroutedRows := 0
	n := net.NumNodes()
	downDist := make([]float64, n)
	downNext := make([]graph.ChannelID, n)
	canDeliver := make([]bool, n)
	h := dial.New(n)

	level := func(x graph.NodeID) int {
		if l, ok := e.Level[x]; ok {
			return l
		}
		return -1 // terminal
	}

	// Switches in descending tier order (for the deliverability pass) and
	// the set of switches with attached terminals (which must always
	// route, since traffic enters there).
	byTierDesc := append([]graph.NodeID(nil), net.Switches()...)
	sort.Slice(byTierDesc, func(i, j int) bool { return level(byTierDesc[i]) > level(byTierDesc[j]) })
	hasTerm := make([]bool, n)
	for _, s := range net.Switches() {
		for _, c := range net.Out(s) {
			if net.IsTerminal(net.Channel(c).To) {
				hasTerm[s] = true
				break
			}
		}
	}

	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		att := d
		if net.IsTerminal(d) {
			att = net.TerminalSwitch(d)
		}
		// Ancestor pass: climb from the attachment switch along up
		// channels; every switch reached is an ancestor and routes down
		// along the discovered channel. Dijkstra handles windowed Clos
		// topologies where parallel uplinks differ.
		for i := 0; i < n; i++ {
			downDist[i] = math.Inf(1)
			downNext[i] = graph.NoChannel
		}
		downDist[att] = 0
		h.InsertOrDecrease(int(att), 0)
		for {
			item, ok := h.ExtractMin()
			if !ok {
				break
			}
			v := graph.NodeID(item)
			for _, c := range net.In(v) { // c = (u, v): u descends via c
				u := net.Channel(c).From
				if level(u) <= level(v) || !net.IsSwitch(u) {
					continue // only true ancestors (strictly higher tier)
				}
				if nd := downDist[v] + 1; nd < downDist[u] {
					downDist[u] = nd
					downNext[u] = c
					h.InsertOrDecrease(int(u), nd)
				}
			}
		}
		// Deliverability pass: a switch can deliver to d iff it is an
		// ancestor (has a down path) or some strictly-higher up neighbor
		// can. On a pristine k-ary n-tree every root is a common ancestor
		// and everything delivers; after link faults the blind "any up
		// channel works" assumption breaks — climbing to a root whose
		// down path to d's subtree is severed strands the packet. Up
		// channels go strictly to higher tiers, so one sweep in
		// descending tier order reaches the fixpoint.
		for _, s := range byTierDesc {
			can := downNext[s] != graph.NoChannel || s == att
			if !can {
				for _, c := range net.Out(s) {
					v := net.Channel(c).To
					if net.IsSwitch(v) && level(v) > level(s) && canDeliver[v] {
						can = true
						break
					}
				}
			}
			canDeliver[s] = can
		}
		// Table: ancestors go down; everyone else goes up toward the
		// nearest ancestor, spreading by destination ID.
		for _, s := range net.Switches() {
			if s == d || net.Degree(s) == 0 {
				continue
			}
			if s == att && net.IsTerminal(d) {
				table.Set(s, d, net.FindChannel(s, d))
				continue
			}
			if downNext[s] != graph.NoChannel {
				table.Set(s, d, downNext[s])
				continue
			}
			up, err := upChoice(net, s, d, level, downDist, canDeliver)
			if err != nil {
				// Like OpenSM's ftree, switch-to-switch rows that have no
				// legal up/down path are omitted — but a switch where
				// traffic enters the fabric (attached terminals) must
				// route; failing one means the faulted topology is no
				// longer routable as a fat tree, and the engine refuses
				// rather than publishing a table that strands packets.
				if s == att || hasTerm[s] {
					return nil, fmt.Errorf("ftree: switch %d toward %d: %w", s, d, err)
				}
				unroutedRows++
				continue
			}
			table.Set(s, d, up)
		}
	}
	return &routing.Result{
		Algorithm: "ftree",
		Table:     table,
		VCs:       1,
		Stats:     map[string]float64{"unrouted_switch_rows": float64(unroutedRows)},
	}, nil
}

// upChoice picks the upward channel at non-ancestor switch s toward
// destination d: among up neighbors that are ancestors (finite downDist),
// spread by destination ID; otherwise spread over the up channels that
// can still deliver (on full k-ary n-trees that is all of them, since
// every root is a common ancestor), and fail when no deliverable up
// channel remains.
func upChoice(net *graph.Network, s, d graph.NodeID, level func(graph.NodeID) int, downDist []float64, canDeliver []bool) (graph.ChannelID, error) {
	var ancestors, ups []graph.ChannelID
	for _, c := range net.Out(s) {
		v := net.Channel(c).To
		if !net.IsSwitch(v) || level(v) <= level(s) || !canDeliver[v] {
			continue
		}
		ups = append(ups, c)
		if !math.IsInf(downDist[v], 1) {
			ancestors = append(ancestors, c)
		}
	}
	if len(ancestors) > 0 {
		return ancestors[int(d)%len(ancestors)], nil
	}
	if len(ups) > 0 {
		return ups[int(d)%len(ups)], nil
	}
	return graph.NoChannel, errors.New("no deliverable upward channel; topology is not a routable fat tree")
}
