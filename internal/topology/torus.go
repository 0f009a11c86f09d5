package topology

import (
	"fmt"

	"repro/internal/graph"
)

// Torus3D builds a dx × dy × dz 3D torus of switches with t terminals per
// switch and r parallel links (redundancy) between adjacent switches.
// Dimensions of size 1 are allowed (degenerate), dimensions of size 2 get
// a single link (not a double link) between the two switches of a ring.
func Torus3D(dx, dy, dz, t, r int) *Topology {
	return grid3D(dx, dy, dz, t, r, true)
}

// Mesh3D builds a dx × dy × dz 3D mesh (a torus without wrap-around
// links). Meshes are the canonical network-on-chip substrate (§7 of the
// paper); plain dimension-order routing is deadlock-free on them with a
// single virtual channel.
func Mesh3D(dx, dy, dz, t, r int) *Topology {
	return grid3D(dx, dy, dz, t, r, false)
}

// Mesh2D builds a dx × dy mesh of tiles, the typical NoC floor plan.
func Mesh2D(dx, dy, t int) *Topology {
	tp := grid3D(dx, dy, 1, t, 1, false)
	tp.Name = fmt.Sprintf("mesh-%dx%d", dx, dy)
	return tp
}

func grid3D(dx, dy, dz, t, r int, wrap bool) *Topology {
	if dx < 1 || dy < 1 || dz < 1 {
		panic("topology: torus dimensions must be >= 1")
	}
	if r < 1 {
		panic("topology: torus redundancy must be >= 1")
	}
	b := graph.NewBuilder()
	meta := &TorusMeta{
		Dims:     [3]int{dx, dy, dz},
		Wrap:     wrap,
		Coord:    make(map[graph.NodeID][3]int),
		SwitchAt: make([][][]graph.NodeID, dx),
	}
	for x := 0; x < dx; x++ {
		meta.SwitchAt[x] = make([][]graph.NodeID, dy)
		for y := 0; y < dy; y++ {
			meta.SwitchAt[x][y] = make([]graph.NodeID, dz)
			for z := 0; z < dz; z++ {
				id := b.AddSwitch(fmt.Sprintf("t%d-%d-%d", x, y, z))
				meta.SwitchAt[x][y][z] = id
				meta.Coord[id] = [3]int{x, y, z}
			}
		}
	}
	link := func(a, c graph.NodeID) {
		for i := 0; i < r; i++ {
			b.AddLink(a, c)
		}
	}
	for x := 0; x < dx; x++ {
		for y := 0; y < dy; y++ {
			for z := 0; z < dz; z++ {
				s := meta.SwitchAt[x][y][z]
				// +x, +y, +z neighbors; wrap-around (tori only) once per
				// ring, and no duplicate link for rings of size 2.
				if dx > 1 && (x+1 < dx || (wrap && dx > 2)) {
					link(s, meta.SwitchAt[(x+1)%dx][y][z])
				}
				if dy > 1 && (y+1 < dy || (wrap && dy > 2)) {
					link(s, meta.SwitchAt[x][(y+1)%dy][z])
				}
				if dz > 1 && (z+1 < dz || (wrap && dz > 2)) {
					link(s, meta.SwitchAt[x][y][(z+1)%dz])
				}
			}
		}
	}
	switches := make([]graph.NodeID, 0, dx*dy*dz)
	for x := 0; x < dx; x++ {
		for y := 0; y < dy; y++ {
			for z := 0; z < dz; z++ {
				switches = append(switches, meta.SwitchAt[x][y][z])
			}
		}
	}
	addTerminals(b, switches, t)
	kind := "torus"
	if !wrap {
		kind = "mesh"
	}
	return &Topology{
		Net:   b.MustBuild(),
		Name:  fmt.Sprintf("%s-%dx%dx%d", kind, dx, dy, dz),
		Torus: meta,
	}
}

// ChannelDims returns the grid dimension of every channel of net (-1 for
// terminal links).
func (m *TorusMeta) ChannelDims(net *graph.Network) []int8 {
	dims := make([]int8, net.NumChannels())
	for c := 0; c < net.NumChannels(); c++ {
		dims[c] = -1
		ch := net.Channel(graph.ChannelID(c))
		fa, okF := m.Coord[ch.From]
		fb, okT := m.Coord[ch.To]
		if !okF || !okT {
			continue
		}
		for d := 0; d < 3; d++ {
			if fa[d] != fb[d] {
				dims[c] = int8(d)
				break
			}
		}
	}
	return dims
}

// Alive reports whether the switch at coordinate c can forward traffic
// on net.
func (m *TorusMeta) Alive(net *graph.Network, c [3]int) bool {
	return net.Degree(m.SwitchAt[c[0]][c[1]][c[2]]) > 0
}

// Link returns a live channel of net between adjacent coordinates, or
// NoChannel.
func (m *TorusMeta) Link(net *graph.Network, a, b [3]int) graph.ChannelID {
	return net.FindChannel(m.SwitchAt[a[0]][a[1]][a[2]], m.SwitchAt[b[0]][b[1]][b[2]])
}

// Step returns the coordinate one hop from c along dim in direction dir.
// On meshes, stepping over the boundary stays in place.
func (m *TorusMeta) Step(c [3]int, dim, dir int) [3]int {
	size := m.Dims[dim]
	next := c[dim] + dir
	if !m.Wrap && (next < 0 || next >= size) {
		return c
	}
	c[dim] = ((next % size) + size) % size
	return c
}

// Walk attempts the ring segment from cur to coordinate target along dim
// in direction dir on net, failing on a dead switch, a missing link or a
// mesh boundary (an early exit only: Step then stays in place, and no
// switch has a channel to itself for Link to find). crossed reports a
// dateline traversal (a wrap between size-1 and 0).
func (m *TorusMeta) Walk(net *graph.Network, cur [3]int, target, dim, dir int) (seg []graph.ChannelID, crossed, ok bool) {
	for guard := 0; cur[dim] != target; guard++ {
		if guard > m.Dims[dim] {
			return nil, false, false
		}
		next := m.Step(cur, dim, dir)
		if next == cur || !m.Alive(net, next) {
			return nil, false, false
		}
		c := m.Link(net, cur, next)
		if c == graph.NoChannel {
			return nil, false, false
		}
		seg = append(seg, c)
		if (dir == 1 && next[dim] == 0) || (dir == -1 && cur[dim] == 0) {
			crossed = true
		}
		cur = next
	}
	return seg, crossed, true
}
