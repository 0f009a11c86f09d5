package dor

import (
	"errors"
	"math/bits"
	"sort"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Angara routes 3D tori and meshes by the optimized graph-based torus
// routing of the Angara interconnect (Mukosey, Semenov, Simonov):
// direction-ordered routing with first-step/last-step fault bypass. Meta
// must describe the grid.
//
// Where classic dimension-order walks dimensions x, y, z regardless of
// ring direction, Angara orders by *direction class*: a path first takes
// all its positive-direction segments (in ascending dimension), then all
// its negative-direction segments (in ascending dimension). Turns
// therefore follow the fixed class order +x < +y < +z < -x < -y < -z,
// which makes the fault-free CDG acyclic on meshes with a single lane;
// on tori the per-dimension dateline bit (as in Torus-2QoS) splits each
// directed ring across two virtual lanes, restoring deadlock freedom
// with 2 VLs.
//
// Fault tolerance is the engine's distinguishing feature: when no
// direction assignment yields a fully-alive direction-ordered path, the
// planner bypasses the fault with one extra hop at the FIRST step (out
// of the source switch) and/or the LAST step (into the destination
// switch) — the Angara hardware's escape hatch. Bypassed or
// direction-flipped paths can violate the class order, so whenever any
// pair used one the engine re-verifies the whole table and refuses
// rather than return an unsafe result.
type Angara struct {
	Meta *topology.TorusMeta
}

// Name implements routing.Engine.
func (Angara) Name() string { return "angara" }

// Claims implements routing.Claimant: direction-ordered routing is
// deadlock-free with one lane on meshes and with the 2-lane dateline
// budget on tori.
func (e Angara) Claims() routing.Claims {
	if e.Meta != nil && !e.Meta.Wrap {
		return routing.Claims{DeadlockFree: true, MinVCs: 1}
	}
	return routing.Claims{DeadlockFree: true, MinVCs: 2}
}

// Route implements routing.Engine.
func (e Angara) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	return drive(net, dests, maxVCs, grid{meta: e.Meta, name: "angara", prefix: "angara", shape: "torus/mesh",
		order: "direction-ordered", stat: "irregular", lanes: e.Meta != nil && e.Meta.Wrap,
		unsafe: "angara: faults defeat direction-ordered routing",
		admit: func(p *planner, maxVCs int) error {
			if p.meta.Wrap && maxVCs < 2 {
				return errors.New("angara: tori need 2 virtual channels for dateline deadlock freedom")
			}
			return nil
		},
		plan: (*planner).route})
}

// route is Angara's planner: the path from switch sSw (coordinate sc) to
// switch dSw (coordinate dc). irregular is 1 when the path is not the
// default shortest direction-ordered one (flipped ring direction or
// bypass hop) and therefore needs whole-table re-verification.
func (p *planner) route(sSw, dSw graph.NodeID, sc, dc [3]int) (path []graph.ChannelID, sl uint8, irregular int, err error) {
	for i, signs := range p.signCombos(sc, dc) {
		if path, sl, ok := p.walkPlan(sc, dc, signs); ok {
			return path, sl, min(i, 1), nil
		}
	}
	// First-step bypass: leave the source switch through any live port,
	// then route direction-ordered from the neighbor.
	for _, c := range p.net.Out(sSw) {
		n := p.net.Channel(c).To
		nc, ok := p.bypassCoord(n)
		if !ok {
			continue
		}
		for _, signs := range p.signCombos(nc, dc) {
			if rest, rsl, ok := p.walkPlan(nc, dc, signs); ok {
				return append([]graph.ChannelID{c}, rest...), rsl | p.crossBit(c), 1, nil
			}
		}
	}
	// Last-step bypass: route to any live neighbor of the destination
	// switch, then take its direct port in.
	for _, c := range p.net.In(dSw) {
		m := p.net.Channel(c).From
		mc, ok := p.bypassCoord(m)
		if !ok {
			continue
		}
		for _, signs := range p.signCombos(sc, mc) {
			if head, hsl, ok := p.walkPlan(sc, mc, signs); ok {
				return append(head, c), hsl | p.crossBit(c), 1, nil
			}
		}
	}
	// Combined first+last-step bypass.
	for _, c1 := range p.net.Out(sSw) {
		n := p.net.Channel(c1).To
		nc, ok := p.bypassCoord(n)
		if !ok {
			continue
		}
		for _, c2 := range p.net.In(dSw) {
			m := p.net.Channel(c2).From
			mc, ok := p.bypassCoord(m)
			if !ok {
				continue
			}
			for _, signs := range p.signCombos(nc, mc) {
				if mid, msl, ok := p.walkPlan(nc, mc, signs); ok {
					path := append([]graph.ChannelID{c1}, mid...)
					path = append(path, c2)
					return path, msl | p.crossBit(c1) | p.crossBit(c2), 1, nil
				}
			}
		}
	}
	return nil, 0, 0, errors.New("no path within first/last-step bypass budget")
}

// bypassCoord returns the grid coordinate of a candidate bypass switch,
// rejecting terminals, dead switches and off-grid nodes.
func (p *planner) bypassCoord(n graph.NodeID) ([3]int, bool) {
	if !p.net.IsSwitch(n) || p.net.Degree(n) == 0 {
		return [3]int{}, false
	}
	c, ok := p.meta.Coord[n]
	return c, ok
}

// signCombos enumerates per-dimension ring directions to try, default
// (shortest per dimension, ties positive) first, then fault-driven
// flips ordered by how many dimensions they flip. Mesh dimensions and
// 2-rings (one physical link) are not flippable.
func (p *planner) signCombos(src, dst [3]int) [][3]int {
	def := [3]int{1, 1, 1}
	var flippable []int
	for dim := 0; dim < 3; dim++ {
		if src[dim] == dst[dim] {
			continue
		}
		if !p.meta.Wrap {
			if dst[dim] < src[dim] {
				def[dim] = -1
			}
			continue
		}
		size := p.meta.Dims[dim]
		fwd := ((dst[dim]-src[dim])%size + size) % size
		if size-fwd < fwd {
			def[dim] = -1
		}
		if size > 2 {
			flippable = append(flippable, dim)
		}
	}
	masks := make([]int, 0, 1<<len(flippable))
	for m := 0; m < 1<<len(flippable); m++ {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool {
		bi, bj := bits.OnesCount(uint(masks[i])), bits.OnesCount(uint(masks[j]))
		if bi != bj {
			return bi < bj
		}
		return masks[i] < masks[j]
	})
	combos := make([][3]int, 0, len(masks))
	for _, m := range masks {
		signs := def
		for bit, dim := range flippable {
			if m&(1<<uint(bit)) != 0 {
				signs[dim] = -signs[dim]
			}
		}
		combos = append(combos, signs)
	}
	return combos
}

// walkPlan walks all segments in class order: positive directions by
// ascending dimension, then negative directions by ascending dimension.
func (p *planner) walkPlan(src, dst [3]int, signs [3]int) ([]graph.ChannelID, uint8, bool) {
	var path []graph.ChannelID
	var sl uint8
	cur := src
	for _, want := range []int{1, -1} {
		for dim := 0; dim < 3; dim++ {
			if src[dim] == dst[dim] || signs[dim] != want {
				continue
			}
			seg, crossed, ok := p.meta.Walk(p.net, cur, dst[dim], dim, want)
			if !ok {
				return nil, 0, false
			}
			path = append(path, seg...)
			if crossed {
				sl |= 1 << uint(dim)
			}
			cur[dim] = dst[dim]
		}
	}
	return path, sl, true
}

// crossBit returns the dateline service-level bit a single bypass hop
// contributes (its exact lane matters less than consistency: bypassed
// tables are always re-verified).
func (p *planner) crossBit(c graph.ChannelID) uint8 {
	d := p.dimOf[c]
	if d < 0 || !p.meta.Wrap {
		return 0
	}
	ch := p.net.Channel(c)
	a, b := p.meta.Coord[ch.From], p.meta.Coord[ch.To]
	size := p.meta.Dims[d]
	if (a[d] == size-1 && b[d] == 0) || (size > 2 && a[d] == 0 && b[d] == size-1) {
		return 1 << uint(d)
	}
	return 0
}
