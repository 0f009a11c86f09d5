// Package topology generates the interconnection networks used in the Nue
// paper's evaluation (Table 1): random topologies, 3D tori with link
// redundancy, k-ary n-trees, Kautz graphs, Dragonflies, a Cascade-like
// two-group network and a Tsubame2.5-like fat tree — plus the small worked
// examples from the paper's figures, fault injection, and a text
// serialization format.
package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Topology bundles a network with the metadata some routing algorithms
// need (torus coordinates, tree levels).
type Topology struct {
	Net  *graph.Network
	Name string
	// Torus is non-nil for torus networks; required by the
	// Torus-2QoS-style router.
	Torus *TorusMeta
	// Tree is non-nil for fat-tree-like networks; required by the
	// fat-tree router.
	Tree *TreeMeta
	// Mesh is non-nil for full-mesh (all-to-all) switch fabrics such as
	// single Dragonfly groups; required by the VC-free full-mesh router.
	Mesh *MeshMeta
}

// TorusMeta describes switch placement on a 3D torus or mesh grid.
type TorusMeta struct {
	Dims [3]int
	// Wrap is true for tori (rings close) and false for meshes.
	Wrap bool
	// Coord[switchID] is the (x,y,z) grid position; nodes that are not
	// torus switches have no entry.
	Coord map[graph.NodeID][3]int
	// SwitchAt[x][y][z] is the switch at that position.
	SwitchAt [][][]graph.NodeID
}

// TreeMeta describes levels of a leveled (fat-tree-like) network.
type TreeMeta struct {
	// Level[switchID] = 0 for leaf switches, increasing toward the roots.
	Level map[graph.NodeID]int
	// NumLevels is the number of switch levels.
	NumLevels int
}

// Ring returns a ring of n switches with t terminals attached to each.
func Ring(n, t int) *Topology {
	if n < 3 {
		panic("topology: ring needs >= 3 switches")
	}
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, n)
	for i := range sw {
		sw[i] = b.AddSwitch(fmt.Sprintf("sw%d", i))
	}
	for i := 0; i < n; i++ {
		b.AddLink(sw[i], sw[(i+1)%n])
	}
	addTerminals(b, sw, t)
	return &Topology{Net: b.MustBuild(), Name: fmt.Sprintf("ring-%d", n)}
}

// RingWithShortcut returns the 5-node ring with the n3-n5 shortcut from
// Fig. 2a of the paper. Switch IDs 0..4 correspond to the paper's n1..n5;
// no terminals are attached (the paper's example routes between switches).
func RingWithShortcut() *Topology {
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, 5)
	for i := range sw {
		sw[i] = b.AddSwitch(fmt.Sprintf("n%d", i+1))
	}
	for i := 0; i < 5; i++ {
		b.AddLink(sw[i], sw[(i+1)%5])
	}
	b.AddLink(sw[2], sw[4]) // the n3-n5 shortcut
	return &Topology{Net: b.MustBuild(), Name: "ring5-shortcut"}
}

// addTerminals attaches t terminals to each listed switch.
func addTerminals(b *graph.Builder, switches []graph.NodeID, t int) {
	for _, s := range switches {
		for j := 0; j < t; j++ {
			tm := b.AddTerminal(fmt.Sprintf("h%d-%d", s, j))
			b.AddLink(tm, s)
		}
	}
}

// Stats summarizes a topology in the shape of the paper's Table 1.
type Stats struct {
	Name      string
	Switches  int
	Terminals int
	// SSLinks is the number of switch-to-switch duplex links (the
	// "Channels" column of Table 1 counts these).
	SSLinks int
}

// Describe computes Table 1-style statistics.
func Describe(tp *Topology) Stats {
	g := tp.Net
	ss := 0
	for i := 0; i < g.NumChannels(); i += 2 { // one per duplex link
		c := g.Channel(graph.ChannelID(i))
		if c.Failed {
			continue
		}
		if g.IsSwitch(c.From) && g.IsSwitch(c.To) {
			ss++
		}
	}
	return Stats{
		Name:      tp.Name,
		Switches:  g.NumSwitches(),
		Terminals: g.NumTerminals(),
		SSLinks:   ss,
	}
}
