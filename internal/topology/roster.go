package topology

import (
	"fmt"
	"math/rand"
	"strings"
)

// Params are the sizes a caller chooses for a named fabric: the union of
// the binaries' size flags. A nil size, or an empty Dims, is unset and the
// family's default applies; the binaries pass the pointers the flag
// package hands them, so a size a binary has a flag for is always set.
type Params struct {
	Dims            string // "4x4x3"
	Switches, Links *int
	Terminals       *int // per switch; per leaf switch on a fat tree
	K, Levels       *int
	Redundancy      *int  // parallel links per connection
	Seed            int64 // drives the random family's draw
}

// sizes is a Params with nothing left unset.
type sizes struct {
	dims                                              [3]int
	switches, links, terminals, k, levels, redundancy int
	seed                                              int64
}

// family is one name of the roster.
type family struct {
	name string
	// def is the default of every size build reads: a size whose default
	// is zero is one the family does not read.
	def         sizes
	minSwitches int
	// paper is the family's row of the paper's Table 1, nil for none.
	paper *sizes
	build func(sizes) *Topology
}

// table order is the order of Names, hence of every binary's help and of
// the unknown-name error, and of the rows of Table 1.
var table = []family{
	{name: "random", def: sizes{switches: 30, links: 90, terminals: 1}, minSwitches: 2,
		paper: &sizes{switches: 125, links: 1000, terminals: 8},
		build: func(s sizes) *Topology {
			return RandomTopology(rand.New(rand.NewSource(s.seed)), s.switches, s.links, s.terminals)
		}},
	{name: "torus", def: sizes{dims: [3]int{4, 4, 3}, terminals: 1, redundancy: 1},
		paper: &sizes{dims: [3]int{6, 5, 5}, terminals: 7, redundancy: 4},
		build: func(s sizes) *Topology { return Torus3D(s.dims[0], s.dims[1], s.dims[2], s.terminals, s.redundancy) }},
	{name: "mesh", def: sizes{dims: [3]int{4, 4, 3}, terminals: 1, redundancy: 1},
		build: func(s sizes) *Topology { return Mesh3D(s.dims[0], s.dims[1], s.dims[2], s.terminals, s.redundancy) }},
	{name: "fattree", def: sizes{k: 4, levels: 3, terminals: 1}, paper: &sizes{k: 10, levels: 3, terminals: 11},
		build: func(s sizes) *Topology { return KAryNTree(s.k, s.levels, s.terminals) }},
	{name: "kautz", def: sizes{k: 3, levels: 2, terminals: 1, redundancy: 1},
		paper: &sizes{k: 5, levels: 3, terminals: 7, redundancy: 2},
		build: func(s sizes) *Topology { return Kautz(s.k, s.levels, s.terminals, s.redundancy) }},
	// The 36-switch Dragonfly of the fleet smoke and of the benchmark's
	// *-dfly36 workloads; Table 1's instance is the next name.
	{name: "dragonfly", build: func(sizes) *Topology { return Dragonfly(4, 2, 2, 9) }},
	{name: "dragonfly180", paper: &sizes{}, build: func(sizes) *Topology { return Dragonfly(12, 6, 6, 15) }},
	{name: "cascade", paper: &sizes{}, build: func(sizes) *Topology { return Cascade2Group() }},
	{name: "tsubame", paper: &sizes{}, build: func(sizes) *Topology { return TsubameLike() }},
	{name: "ring", def: sizes{switches: 8, terminals: 1}, minSwitches: 3,
		build: func(s sizes) *Topology { return Ring(s.switches, s.terminals) }},
	{name: "fullmesh", def: sizes{switches: 8, terminals: 1}, minSwitches: 2,
		build: func(s sizes) *Topology { return FullMesh(s.switches, s.terminals) }},
	{name: "dfgroup", def: sizes{switches: 8, terminals: 1}, minSwitches: 2,
		build: func(s sizes) *Topology { return DragonflyGroup(s.switches, s.terminals) }},
}

// Names lists every name ByName accepts.
func Names() []string {
	out := make([]string, len(table))
	for i, f := range table {
		out[i] = f.name
	}
	return out
}

// ByName builds the named fabric at the caller's sizes. Every generator
// precondition is checked here and reported as an error, so the
// generators' own panics are unreachable from a command line.
func ByName(name string, p Params) (*Topology, error) {
	for _, f := range table {
		if f.name == name {
			s, err := f.resolve(p)
			if err != nil {
				return nil, fmt.Errorf("topology %s: %w", name, err)
			}
			return f.build(s), nil
		}
	}
	return nil, fmt.Errorf("unknown topology %q (have %s)", name, strings.Join(Names(), ", "))
}

// Table1 builds the seven evaluation fabrics of the paper's Table 1; seed
// drives the random one.
func Table1(seed int64) []*Topology {
	var out []*Topology
	for _, f := range table {
		if f.paper != nil {
			s := *f.paper
			s.seed = seed
			out = append(out, f.build(s))
		}
	}
	return out
}

// resolve lays the sizes the family reads over its defaults and checks
// each against what the generator accepts.
func (f family) resolve(p Params) (sizes, error) {
	s := f.def
	s.seed = p.Seed
	if low := strings.ToLower(p.Dims); s.dims != [3]int{} && low != "" {
		// Printing the scan back refuses what scanning alone lets through:
		// "4x4x4x4" scans as 4x4x4.
		d := &s.dims
		if _, err := fmt.Sscanf(low, "%dx%dx%d", &d[0], &d[1], &d[2]); err != nil ||
			fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]) != low || min(d[0], d[1], d[2]) < 1 {
			return s, fmt.Errorf("bad dims %q (want three sizes of at least 1, like 4x4x3)", p.Dims)
		}
	}
	var err error
	size := func(what string, set, v *int, least int) {
		if err != nil || *v == 0 || set == nil {
			return // not read by the family, or left to its default
		}
		if *v = *set; *v < least {
			err = fmt.Errorf("%s must be at least %d, have %d", what, least, *v)
		}
	}
	size("switches", p.Switches, &s.switches, f.minSwitches)
	size("links", p.Links, &s.links, 0)
	size("terminals", p.Terminals, &s.terminals, 0)
	size("k", p.K, &s.k, 2)
	size("levels", p.Levels, &s.levels, 2)
	size("redundancy", p.Redundancy, &s.redundancy, 1)
	if err != nil {
		return s, err
	}
	if tree, pairs := s.switches-1, s.switches*(s.switches-1)/2; f.def.links != 0 && (s.links < tree || s.links > pairs) {
		return s, fmt.Errorf("links must be between %d (a spanning tree of the %d switches) and %d (every pair), have %d",
			tree, s.switches, pairs, s.links)
	}
	return s, nil
}
