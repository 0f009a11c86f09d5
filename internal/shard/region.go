// Package shard is the sharded, replicated control plane: a fabric
// partitioned into topology-aware regions, each owned by a controller
// shard that runs local incremental repairs, with a coordinator that
// runs the repairs spanning regions and a replicated epoch log that
// keeps repair alive across controller crashes and network partitions.
//
// The plane holds a fabric.Manager and runs every epoch through the
// manager's one transaction, passing in a job executor and a
// pre-publication gate that only vetoes (quorum commit) — sharding only
// changes WHERE per-layer repair jobs execute and WHO may publish the
// result, never what is computed or certified. That is the
// digest-equality contract: on identical churn traces the sharded plane
// publishes bit-identical forwarding tables to a monolithic
// fabric.Manager. Whether the old+new table swap needs a drain is
// decided once, by the distribution source that performs it
// (internal/distrib, DESIGN §16).
package shard

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/topology"
)

// Regions is a partition of a fabric into controller-shard ownership
// regions. Every node (switch and terminal) belongs to exactly one
// region; channels whose endpoints live in different regions are seam
// channels.
type Regions struct {
	// N is the number of regions.
	N int
	// Of maps every node to its region.
	Of []int
	// seam marks the directed channels crossing a region boundary.
	seam []bool
	// Sizes counts switches per region.
	Sizes []int
}

// Partition splits tp into n topology-aware regions: Dragonfly groups
// (parsed from the g<idx>-s<idx> switch naming) are kept whole, torus
// grids are cut into contiguous slabs along their largest dimension,
// leveled trees are cut into leaf pods (upper levels spread round-robin),
// and any other topology falls back to contiguous switch-ID blocks —
// which is also group-major on Dragonflies, pod-major on generated fat
// trees and slab-major on generated tori, so the fallback degrades
// gracefully. Terminals join their switch's region. Partitioning is a
// pure function of the pristine topology: churn never moves a node
// between regions.
func Partition(tp *topology.Topology, n int) *Regions {
	net := tp.Net
	if n < 1 {
		n = 1
	}
	if sw := net.NumSwitches(); n > sw {
		n = sw
	}
	r := &Regions{N: n, Of: make([]int, net.NumNodes()), Sizes: make([]int, n)}
	switches := net.Switches()
	assign := func(sw graph.NodeID, region int) {
		r.Of[sw] = region
		r.Sizes[region]++
	}
	groups := dragonflyGroups(net, switches)
	switch {
	case groups != nil:
		// Whole groups per region, contiguous group ranges: region =
		// group * n / numGroups keeps group-major locality and balances
		// within one group of each other.
		numGroups := 0
		for _, g := range groups {
			if g >= numGroups {
				numGroups = g + 1
			}
		}
		for i, sw := range switches {
			assign(sw, groups[i]*n/numGroups)
		}
	case tp.Torus != nil:
		// Slabs along the largest grid dimension.
		dims := tp.Torus.Dims
		axis := 0
		for a := 1; a < 3; a++ {
			if dims[a] > dims[axis] {
				axis = a
			}
		}
		for _, sw := range switches {
			c, ok := tp.Torus.Coord[sw]
			if !ok {
				assign(sw, 0)
				continue
			}
			assign(sw, c[axis]*n/dims[axis])
		}
	case tp.Tree != nil:
		// Leaf pods: level-0 switches in contiguous blocks; upper levels
		// round-robin (they are shared spine capacity, not pod members).
		var leaves, upper []graph.NodeID
		for _, sw := range switches {
			if tp.Tree.Level[sw] == 0 {
				leaves = append(leaves, sw)
			} else {
				upper = append(upper, sw)
			}
		}
		for i, sw := range leaves {
			assign(sw, i*n/len(leaves))
		}
		for i, sw := range upper {
			assign(sw, i%n)
		}
	default:
		for i, sw := range switches {
			assign(sw, i*n/len(switches))
		}
	}
	for _, t := range net.Terminals() {
		r.Of[t] = r.Of[attachedSwitch(net, t)]
	}
	r.seam = make([]bool, net.NumChannels())
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(graph.ChannelID(c))
		if net.IsSwitch(ch.From) && net.IsSwitch(ch.To) && r.Of[ch.From] != r.Of[ch.To] {
			r.seam[c] = true
		}
	}
	return r
}

// Seam reports whether c crosses a region boundary.
func (r *Regions) Seam(c graph.ChannelID) bool { return r.seam[c] }

// SeamCount returns the number of directed seam channels.
func (r *Regions) SeamCount() int {
	n := 0
	for _, s := range r.seam {
		if s {
			n++
		}
	}
	return n
}

// HomeRegion returns the single region containing every node of dests,
// or -1 when they span regions (a job the coordinator runs).
func (r *Regions) HomeRegion(dests []graph.NodeID) int {
	home := -1
	for _, d := range dests {
		if home == -1 {
			home = r.Of[d]
		} else if r.Of[d] != home {
			return -1
		}
	}
	return home
}

// String summarizes the partition.
func (r *Regions) String() string {
	return fmt.Sprintf("%d regions %v, %d seam channels", r.N, r.Sizes, r.SeamCount())
}

// dragonflyGroups parses per-switch Dragonfly group indexes from the
// g<idx>-s<idx> naming convention of topology.Dragonfly. Returns nil when
// any switch does not follow it.
func dragonflyGroups(net *graph.Network, switches []graph.NodeID) []int {
	groups := make([]int, len(switches))
	for i, sw := range switches {
		name := net.Node(sw).Name
		if !strings.HasPrefix(name, "g") {
			return nil
		}
		dash := strings.IndexByte(name, '-')
		if dash < 2 || dash+2 > len(name) || name[dash+1] != 's' {
			return nil
		}
		g, err := strconv.Atoi(name[1:dash])
		if err != nil || g < 0 {
			return nil
		}
		groups[i] = g
	}
	return groups
}

// attachedSwitch returns the switch a terminal connects to, tolerating
// failed links (region membership must survive churn).
func attachedSwitch(net *graph.Network, t graph.NodeID) graph.NodeID {
	if out := net.Out(t); len(out) > 0 {
		return net.Channel(out[0]).To
	}
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(graph.ChannelID(c))
		if ch.From == t {
			return ch.To
		}
	}
	return t
}
