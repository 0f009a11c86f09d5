// Package dor implements dimension-order routing on 3D tori, in two
// flavors:
//
//   - DOR: plain dimension-order with shortest ring direction on a single
//     virtual layer. On tori this deadlocks (ring cycles); it exists as
//     the classic negative baseline.
//   - Torus2QoS: DOR plus dateline virtual-lane assignment in the spirit
//     of OpenSM's Torus-2QoS: a path that crosses the dateline of
//     dimension i sets bit i of its service level, and the SL2VL mapping
//     selects VL = that bit on every channel of dimension i. Because
//     shortest ring segments never span more than half a ring, each
//     (direction, VL) ring subgraph of the CDG stays acyclic, giving
//     deadlock freedom with 2 VLs.
//
// Fault handling approximates the production code: a ring with one failure
// is routed the surviving way; a dead "turn" switch is bypassed with a
// one-hop detour in the next dimension. Detours can break strict dimension
// order, so the engine re-verifies itself and fails (like Torus-2QoS on a
// doubly-broken ring) rather than return unsafe tables.
package dor

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// Engine routes 3D tori by dimension order. Meta must describe the torus;
// Datelines selects the deadlock-free Torus-2QoS mode.
type Engine struct {
	Meta      *topology.TorusMeta
	Datelines bool
}

// Name implements routing.Engine.
func (e Engine) Name() string {
	if e.Datelines {
		return "torus2qos"
	}
	return "dor"
}

// Claims implements routing.Claimant. Torus-2QoS (Datelines) is
// deadlock-free given its 2-VL dateline budget; plain DOR on tori is
// the classic deadlock-prone negative baseline and claims nothing.
func (e Engine) Claims() routing.Claims {
	if e.Datelines {
		return routing.Claims{DeadlockFree: true, MinVCs: 2}
	}
	return routing.Claims{}
}

// Route implements routing.Engine.
func (e Engine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if e.Meta == nil {
		return nil, errors.New("dor: torus metadata required (not a torus)")
	}
	if maxVCs < 1 {
		return nil, errors.New("dor: need at least one virtual channel")
	}
	if e.Datelines && !e.Meta.Wrap {
		return nil, errors.New("torus2qos: meshes have no datelines; use plain dor (deadlock-free on meshes)")
	}
	if e.Datelines && maxVCs < 2 {
		return nil, errors.New("torus2qos: needs 2 virtual channels for dateline deadlock freedom")
	}
	p := &planner{net: net, meta: e.Meta}
	if e.Datelines {
		// Torus-2QoS survives one failure per torus ring (a dead switch
		// counts once for the rings through it) but fails on a second
		// independent failure in the same ring — reproduce that limit.
		if err := p.checkRingFailures(); err != nil {
			return nil, fmt.Errorf("torus2qos: %w", err)
		}
	}
	table := routing.NewTable(net, dests)
	pairLayer := make([][]uint8, net.NumNodes())
	for i := range pairLayer {
		pairLayer[i] = make([]uint8, len(dests))
	}
	detours := 0
	for _, d := range dests {
		if net.Degree(d) == 0 {
			continue
		}
		dstSw := d
		if net.IsTerminal(d) {
			dstSw = net.TerminalSwitch(d)
		}
		dc, ok := e.Meta.Coord[dstSw]
		if !ok {
			return nil, fmt.Errorf("dor: destination switch %d has no torus coordinate", dstSw)
		}
		for _, s := range net.Switches() {
			if net.Degree(s) == 0 {
				continue
			}
			sc, ok := e.Meta.Coord[s]
			if !ok {
				return nil, fmt.Errorf("dor: switch %d has no torus coordinate", s)
			}
			if s == dstSw {
				if net.IsTerminal(d) {
					table.Set(s, d, net.FindChannel(s, d))
				}
				continue
			}
			path, sl, det, err := p.plan(sc, dc, 0)
			if err != nil {
				return nil, fmt.Errorf("%s: no fault-free dimension-order path %v -> %v: %w", e.Name(), sc, dc, err)
			}
			detours += det
			table.Set(s, d, path[0])
			// The service level is a property of the whole path; record it
			// for the switch's attached terminals and for the switch pair.
			di := table.DestIndex(d)
			pairLayer[s][di] = sl
			for _, c := range net.Out(s) {
				if t := net.Channel(c).To; net.IsTerminal(t) {
					pairLayer[t][di] = sl
				}
			}
		}
	}
	res := &routing.Result{
		Algorithm: e.Name(),
		Table:     table,
		Stats:     map[string]float64{"detours": float64(detours)},
	}
	if e.Datelines {
		// The per-pair service levels are meaningful only under the
		// dateline SL2VL mapping; plain DOR forwards everything on one
		// lane and must not advertise layers it does not occupy.
		res.PairLayer = pairLayer
		res.VCs = 2
		dimOf := e.Meta.ChannelDims(net)
		res.SLToVL = func(sl uint8, c graph.ChannelID) uint8 {
			if d := dimOf[c]; d >= 0 {
				return (sl >> uint(d)) & 1
			}
			return 0 // terminal channels
		}
		if detours > 0 {
			// Detoured tables may violate strict dimension order; return
			// them only if they still verify deadlock-free (mirroring
			// Torus-2QoS's limited fault tolerance).
			if _, err := verify.Check(net, res, nil); err != nil {
				return nil, fmt.Errorf("torus2qos: faults defeat dateline routing: %w", err)
			}
		}
	} else {
		res.VCs = 1
	}
	return res, nil
}

// planner computes dimension-order paths with fault bypass.
type planner struct {
	net  *graph.Network
	meta *topology.TorusMeta
}

// checkRingFailures scans every torus ring and fails when a ring has two
// or more failures that are not explained by one dead switch.
func (p *planner) checkRingFailures() error {
	dims := p.meta.Dims
	for dim := 0; dim < 3; dim++ {
		if dims[dim] < 3 {
			continue // degenerate rings have no wrap redundancy to lose
		}
		o1, o2 := (dim+1)%3, (dim+2)%3
		for a := 0; a < dims[o1]; a++ {
			for b := 0; b < dims[o2]; b++ {
				if err := p.checkRing(dim, o1, o2, a, b); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (p *planner) checkRing(dim, o1, o2, a, b int) error {
	size := p.meta.Dims[dim]
	at := func(i int) [3]int {
		var c [3]int
		c[dim] = ((i % size) + size) % size
		c[o1], c[o2] = a, b
		return c
	}
	deadAt := func(i int) bool { return !p.meta.Alive(p.net, at(i)) }
	var broken []int // positions i with unit edge (i, i+1) unusable
	for i := 0; i < size; i++ {
		if deadAt(i) || deadAt(i+1) || p.meta.Link(p.net, at(i), at(i+1)) == graph.NoChannel {
			broken = append(broken, i)
		}
	}
	if len(broken) <= 1 {
		return nil
	}
	if len(broken) == 2 {
		i, j := broken[0], broken[1]
		// Both broken edges flanking a single dead switch count as one
		// failure.
		if (j-i == 1 && deadAt(j)) || (i == 0 && j == size-1 && deadAt(0)) {
			return nil
		}
	}
	return fmt.Errorf("second failure in torus ring dim=%d at (%d,%d): positions %v", dim, a, b, broken)
}

// maxDetours bounds recursive fault bypasses per path.
const maxDetours = 4

// plan returns the dimension-order path from src to dst coordinates, the
// service level (dateline-crossing bits), and the number of detours used.
func (p *planner) plan(src, dst [3]int, depth int) ([]graph.ChannelID, uint8, int, error) {
	if depth > maxDetours {
		return nil, 0, 0, errors.New("too many fault detours")
	}
	var path []graph.ChannelID
	var sl uint8
	cur := src
	for dim := 0; dim < 3; dim++ {
		if cur[dim] == dst[dim] {
			continue
		}
		seg, crossed, ok := p.ringSegment(cur, dst[dim], dim)
		if !ok {
			// The turn switch (or the whole ring segment) is unusable;
			// detour one hop in the next dimension and re-plan.
			det, dsl, dn, err := p.detour(cur, dst, dim, depth)
			if err != nil {
				return nil, 0, 0, err
			}
			return append(path, det...), sl | dsl, dn + 1, nil
		}
		path = append(path, seg...)
		if crossed {
			sl |= 1 << uint(dim)
		}
		cur[dim] = dst[dim]
	}
	return path, sl, 0, nil
}

// ringSegment walks from cur to target coordinate along dim, preferring
// the shortest fully-alive direction. crossed reports a dateline (wrap
// through 0) traversal. On meshes only the direct direction exists.
func (p *planner) ringSegment(cur [3]int, target, dim int) (seg []graph.ChannelID, crossed, ok bool) {
	if !p.meta.Wrap {
		dir := 1
		if target < cur[dim] {
			dir = -1
		}
		return p.meta.Walk(p.net, cur, target, dim, dir)
	}
	size := p.meta.Dims[dim]
	fwd := ((target-cur[dim])%size + size) % size // hops in + direction
	bwd := size - fwd
	dirs := []int{1, -1}
	if bwd < fwd {
		dirs = []int{-1, 1}
	}
	for _, dir := range dirs {
		if seg, crossed, ok := p.meta.Walk(p.net, cur, target, dim, dir); ok {
			return seg, crossed, true
		}
	}
	return nil, false, false
}

// detour side-steps one hop in a later dimension before re-planning.
func (p *planner) detour(cur, dst [3]int, dim, depth int) ([]graph.ChannelID, uint8, int, error) {
	for d2 := dim + 1; d2 < 3; d2++ {
		if p.meta.Dims[d2] < 2 {
			continue
		}
		for _, dir := range []int{1, -1} {
			next := p.meta.Step(cur, d2, dir)
			if next == cur || !p.meta.Alive(p.net, next) {
				continue
			}
			c := p.meta.Link(p.net, cur, next)
			if c == graph.NoChannel {
				continue
			}
			rest, sl, dn, err := p.plan(next, dst, depth+1)
			if err != nil {
				continue
			}
			// The side-step itself may wrap through the dateline.
			if (dir == 1 && next[d2] == 0) || (dir == -1 && cur[d2] == 0) {
				sl |= 1 << uint(d2)
			}
			return append([]graph.ChannelID{c}, rest...), sl, dn, nil
		}
	}
	return nil, 0, 0, errors.New("no detour around fault")
}
