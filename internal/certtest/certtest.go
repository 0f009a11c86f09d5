// Package certtest holds the fixtures the two certifiers' differential
// tests share. verify.Check and oracle.Certify each keep a full-walk
// reference in their own test files and must agree with it on the same
// inputs: the instances of the golden wall, the stress harness's seeded
// trials, one case per shape a routing.Result can take, and planted
// defects. Only tests import this package; it decides nothing about a
// routing and contains no checker code.
package certtest

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bfs"
	"repro/internal/engines"
	"repro/internal/fabric"
	"repro/internal/graph"
	"repro/internal/oracle/exists"
	"repro/internal/oracle/stress"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/lash"
	"repro/internal/routing/updn"
	"repro/internal/topology"
)

// Procs are the GOMAXPROCS settings the lane-sharded certifiers are held
// to: one goroutine, the benchmark host's two, and more than any case has
// lanes.
var Procs = []int{1, 2, 8}

// AtProcs runs f under each setting of Procs and restores the old one.
func AtProcs(f func(p int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range Procs {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

// Case is one input a certifier is handed.
type Case struct {
	Name    string
	Net     *graph.Network
	Res     *routing.Result
	Sources []graph.NodeID // nil: the certifier's default sources
}

// Nue routes net's terminals (its switches when it has none) with the
// engine seed and VC budget given.
func Nue(t testing.TB, net *graph.Network, seed int64, vcs int) *routing.Result {
	t.Helper()
	res, err := engines.Nue(seed, 1).Route(net, dests(net), vcs)
	if err != nil {
		t.Fatalf("nue: %v", err)
	}
	return res
}

func dests(net *graph.Network) []graph.NodeID {
	if d := net.Terminals(); len(d) > 0 {
		return d
	}
	return net.Switches()
}

// Wall is the twelve-instance golden wall of the root package's
// TestFlatCoreEquivalence — every stress family, healthy and with 12% of
// its links failed, at the same pinned seeds — routed by Nue at seed 1.
func Wall(t testing.TB) []Case {
	degraded := func(tp *topology.Topology, seed int64) *topology.Topology {
		out, _ := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(seed)), 0.12)
		return out
	}
	regular := func(seed int64) *topology.Topology {
		return stress.RandomRegular(rand.New(rand.NewSource(seed)), 12, 3, 1)
	}
	var out []Case
	for _, in := range []struct {
		name string
		tp   *topology.Topology
		vcs  int
	}{
		{"torus-4x4x3", topology.Torus3D(4, 4, 3, 1, 1), 4},
		{"torus-4x4x3-degraded", degraded(topology.Torus3D(4, 4, 3, 1, 1), 11), 4},
		{"dragonfly-a4h2g9", topology.Dragonfly(4, 2, 2, 9), 4},
		{"dragonfly-a4h2g9-degraded", degraded(topology.Dragonfly(4, 2, 2, 9), 12), 4},
		{"fattree-2ary3", topology.KAryNTree(2, 3, 2), 2},
		{"fattree-2ary3-degraded", degraded(topology.KAryNTree(2, 3, 2), 13), 2},
		{"kautz-b3k2", topology.Kautz(3, 2, 1, 1), 3},
		{"kautz-b3k2-degraded", degraded(topology.Kautz(3, 2, 1, 1), 14), 3},
		{"fullmesh-8", topology.FullMesh(8, 1), 1},
		{"fullmesh-8-degraded", degraded(topology.FullMesh(8, 1), 15), 1},
		{"regular-12x3", regular(16), 2},
		{"regular-12x3-degraded", degraded(regular(17), 18), 2},
	} {
		out = append(out, Case{Name: in.name, Net: in.tp.Net, Res: Nue(t, in.tp.Net, 1, in.vcs)})
	}
	return out
}

// Seeds hands each the routings of the stress harness's trials 0..n-1:
// the topology and VC budget stress.Run draws for the seed, routed by
// every engine of its roster that accepts them. Sound and unsound
// routings both occur (plain DOR and MinHop claim nothing).
func Seeds(t testing.TB, n int64, each func(Case)) {
	for seed := int64(0); seed < n; seed++ {
		class := stress.ClassFor(seed)
		rng := rand.New(rand.NewSource(seed))
		tp := stress.Generate(class, rng)
		vcs := stress.DefaultVCs(class, rng)
		for _, eng := range engines.Differential(tp, seed, 1) {
			res, err := eng.Route(tp.Net, dests(tp.Net), vcs)
			if err != nil {
				continue // the engine refuses this instance
			}
			each(Case{Name: fmt.Sprintf("seed-%d/%s/%s", seed, tp.Name, eng.Name()), Net: tp.Net, Res: res})
		}
	}
}

// Shapes returns one sound case per shape a result can take and per way
// a source can meet what earlier sources of its destination left behind.
func Shapes(t testing.TB) []Case {
	var out []Case
	add := func(name string, net *graph.Network, res *routing.Result, sources []graph.NodeID) {
		out = append(out, Case{Name: name, Net: net, Res: res, Sources: sources})
	}
	route := func(e routing.Engine, tp *topology.Topology, vcs int) *routing.Result {
		t.Helper()
		res, err := e.Route(tp.Net, dests(tp.Net), vcs)
		if err != nil {
			t.Fatalf("%s on %s: %v", e.Name(), tp.Name, err)
		}
		return res
	}

	torus := topology.Torus3D(4, 4, 2, 2, 1)
	nue := Nue(t, torus.Net, 3, 3)
	add("destlayer-nue", torus.Net, nue, nil)

	// Explicit sources: a subset, out of order, one of them a switch that
	// lies on other sources' paths.
	terms := torus.Net.Terminals()
	add("sources-subset", torus.Net, nue, []graph.NodeID{terms[17], terms[3], torus.Net.Switches()[5], terms[40], terms[4]})

	// PairLayer: sources of one destination sit on different layers and
	// share table suffixes, so a suffix settled for one lane is not
	// settled for the other.
	add("pairlayer-lash", torus.Net, route(lash.Engine{}, torus, 4), nil)
	add("pairlayer-dfsssp", torus.Net, route(dfsssp.Engine{}, torus, 8), nil)
	add("pairlayer-alternating", torus.Net, alternatingLayers(nue, torus.Net), nil)

	// SLToVL: the lane changes along the path at the datelines.
	add("sltovl-torus2qos", torus.Net, route(dor.Engine{Meta: torus.Torus, Datelines: true}, torus, 2), nil)

	// PairPath overrides: the existence witness source-routes every pair
	// over an empty table; the partial case's override pairs are
	// source-routed across nodes the table pairs settle, and table pairs
	// walk across nodes only overrides have visited.
	tor5 := topology.Torus3D(5, 5, 1, 2, 1)
	add("pairpath-exists-all", tor5.Net, route(exists.Engine{}, tor5, 1), nil)
	tor52 := topology.Torus3D(5, 5, 2, 1, 1)
	add("pairpath-updn-partial", tor52.Net, overridden(route(updn.Engine{}, tor52, 1), route(exists.Engine{}, tor52, 1)), nil)

	out = append(out, terminalLess(t), halfFailed())
	return out
}

// overridden is the Up*/Down* table with every other source's pairs
// source-routed along the existence witness instead, on the one lane:
// override pairs and table pairs cross each other's settled nodes, and
// the override paths leave the table's. Each routing is deadlock-free,
// and so, on the 5x5x2 torus, is the union of their dependencies.
func overridden(table, witness *routing.Result) *routing.Result {
	res := *table
	res.PairPath = make(map[uint64][]graph.ChannelID)
	dests := res.Table.Dests()
	for i := 1; i < len(dests); i += 2 {
		for _, d := range dests {
			if k := routing.PairKey(dests[i], d); dests[i] != d {
				res.PairPath[k] = witness.PairPath[k]
			}
		}
	}
	return &res
}

// terminalLess has no terminals: every switch is source and destination,
// so most sources already stand on an earlier source's path.
func terminalLess(t testing.TB) Case {
	bare := topology.Torus3D(3, 3, 2, 0, 1)
	return Case{Name: "terminal-less", Net: bare.Net, Res: Nue(t, bare.Net, 5, 2)}
}

// halfFailed is a spanning-tree routing on a random network whose
// non-tree links lost one direction.
func halfFailed() Case {
	rng := rand.New(rand.NewSource(21))
	oneway := topology.RandomTopology(rng, 14, 24, 1)
	tree := bfs.SpanningTree(oneway.Net, oneway.Net.Switches()[0])
	for c := 0; c < oneway.Net.NumChannels(); c += 2 {
		id := graph.ChannelID(c)
		ch := oneway.Net.Channel(id)
		if oneway.Net.IsSwitch(ch.From) && oneway.Net.IsSwitch(ch.To) && !tree.IsTreeChannel(id) && rng.Intn(2) == 0 {
			oneway.Net.SetHalfFailed(id, true)
		}
	}
	return Case{Name: "half-failed", Net: oneway.Net, Res: treeRouting(oneway.Net, tree)}
}

// Reach returns sound cases that differ in which nodes can reach which
// destination, for certifiers that sweep reachability once per class of
// mutually reachable destinations instead of once per destination:
// the two above (one class each: the half-failed network keeps its
// spanning tree duplex); two islands with no link between them, whose
// terminals alternate in destination order, so consecutive destinations
// never share a class; and the same islands joined by a link that only
// carries traffic from the second to the first. There the first
// destination in order is reached by every node, but the second island's
// nodes, which all reach it, are themselves reached by their own island
// only: reaching a destination does not put a node in its class.
func Reach(t testing.TB) []Case {
	return []Case{halfFailed(), terminalLess(t), islands("two-components", false), islands("one-way-bridge", true)}
}

// islands builds two rings of three switches with a terminal each, the
// terminals numbered alternately, and a link between the rings that is
// either down or up from the second ring to the first only. Each ring
// routes along a spanning tree of its own, and the second reaches the
// first along its tree, which crosses the bridge.
func islands(name string, bridged bool) Case {
	b := graph.NewBuilder()
	var ring [2][3]graph.NodeID
	for side := range ring {
		for i := range ring[side] {
			ring[side][i] = b.AddSwitch("")
		}
		for i := range ring[side] {
			b.AddLink(ring[side][i], ring[side][(i+1)%3])
		}
	}
	bridge := b.AddLink(ring[0][0], ring[1][0])
	for i := 0; i < 3; i++ {
		for side := range ring {
			b.AddLink(b.AddTerminal(""), ring[side][i])
		}
	}
	g := b.MustBuild()
	if bridged {
		g.SetHalfFailed(bridge, true)
	} else {
		g.SetChannelFailed(bridge, true)
	}
	res := treeRouting(g, bfs.SpanningTree(g, ring[0][0]), bfs.SpanningTree(g, ring[1][0]))
	// Two lanes, each with destinations on both islands: a tree routing
	// is deadlock-free however its destinations are spread over lanes.
	res.VCs = 2
	res.DestLayer = make([]uint8, len(res.Table.Dests()))
	for i := range res.DestLayer {
		res.DestLayer[i] = uint8(i / 2 % 2)
	}
	return Case{Name: name, Net: g, Res: res}
}

// CyclicLanes is an unsound case with nothing wrong on any single path:
// dimension-order routing without datelines on a torus, its destinations
// dealt alternately onto two lanes. Every pair walks to its destination
// and each lane's dependency graph has cycles, so a certifier that
// builds the lanes on different goroutines must refute it with the
// lanes, and the witness, a single goroutine finds.
func CyclicLanes(t testing.TB) Case { return cyclicLanes(t, topology.Torus3D(4, 4, 2, 1, 1)) }

func cyclicLanes(t testing.TB, torus *topology.Topology) Case {
	res, err := dor.Engine{Meta: torus.Torus}.Route(torus.Net, dests(torus.Net), 1)
	if err != nil {
		t.Fatalf("cyclic lanes: %v", err)
	}
	res.VCs = 2
	res.DestLayer = make([]uint8, len(res.Table.Dests()))
	for i := range res.DestLayer {
		res.DestLayer[i] = uint8(i % 2)
	}
	return Case{Name: "cyclic-lanes", Net: torus.Net, Res: res}
}

// Transition is one epoch change a transition certifier is handed: the
// network of the new epoch and the routings before and after.
type Transition struct {
	Name     string
	Net      *graph.Network
	Old, New *routing.Result
}

// Transitions hands each the epoch changes of the control plane's
// differential sweep (internal/shard), seeds 0..n-1: the same three
// topology families, VC budgets 1..4 and six random link events per seed
// through the fabric manager, every published epoch paired with the one
// before it. Repairs that keep every layer, repairs that rebuild a layer
// and unions that must be drained all occur.
func Transitions(t testing.TB, n int, each func(Transition)) {
	for seed := 0; seed < n; seed++ {
		var tp *topology.Topology
		switch seed % 3 {
		case 0:
			sw := 14 + seed%5
			tp = topology.RandomTopology(rand.New(rand.NewSource(int64(seed))), sw, 3*sw, 1)
		case 1:
			tp = topology.Torus3D(3, 3, 2, 1, 1)
		default:
			tp = topology.Dragonfly(3, 2, 2, 5)
		}
		mgr, err := fabric.NewManager(tp, fabric.Options{MaxVCs: 1 + seed%4, Seed: int64(seed)})
		if err != nil {
			t.Fatalf("transitions seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(int64(10_000 + seed)))
		for i := 0; i < 6; i++ {
			ev, ok := mgr.RandomEvent(rng, 0.3)
			if !ok {
				break
			}
			old := mgr.View()
			if _, err := mgr.Apply(ev); err != nil {
				t.Fatalf("transitions seed %d event %d (%s): %v", seed, i, ev, err)
			}
			if cur := mgr.View(); cur != old {
				each(Transition{Name: fmt.Sprintf("seed-%d/%s/%s", seed, tp.Name, ev), Net: cur.Net, Old: old.Result, New: cur.Result})
			}
		}
	}
}

// TwoLanes is the smallest case in which a suffix settled for one lane
// is owed again for another: switches s0 - s1 - s2 with a terminal each,
// one destination d at s2, the source at s0 on lane 0 and the source at
// s1 on lane 1. The second source finds every node of s1 -> s2 -> d
// already walked, yet its lane's copy of the dependencies is owed:
// 3 on lane 0, 2 on lane 1, 2 pairs, 4 hops at most.
func TwoLanes() Case {
	b := graph.NewBuilder()
	sw := []graph.NodeID{b.AddSwitch(""), b.AddSwitch(""), b.AddSwitch("")}
	b.AddLink(sw[0], sw[1])
	b.AddLink(sw[1], sw[2])
	var terms []graph.NodeID
	for _, s := range sw {
		tm := b.AddTerminal("")
		b.AddLink(tm, s)
		terms = append(terms, tm)
	}
	g := b.MustBuild()
	d := terms[2]
	tbl := routing.NewTable(g, []graph.NodeID{d})
	tbl.Set(sw[0], d, g.FindChannel(sw[0], sw[1]))
	tbl.Set(sw[1], d, g.FindChannel(sw[1], sw[2]))
	tbl.Set(sw[2], d, g.FindChannel(sw[2], d))
	res := &routing.Result{Table: tbl, VCs: 2, PairLayer: make([][]uint8, g.NumNodes())}
	for n := range res.PairLayer {
		res.PairLayer[n] = []uint8{0}
	}
	res.PairLayer[terms[1]][0] = 1
	return Case{Name: "two-lanes", Net: g, Res: res}
}

// BoundInstances returns the two instances the table-lookup bound is
// pinned on: the 8x8x8 torus and Dragonfly(4,2,2,9), routed by Nue.
func BoundInstances(t testing.TB) []Case {
	var out []Case
	for _, tp := range []*topology.Topology{topology.Torus3D(8, 8, 8, 1, 1), topology.Dragonfly(4, 2, 2, 9)} {
		out = append(out, Case{Name: tp.Name, Net: tp.Net, Res: Nue(t, tp.Net, 1, 4)})
	}
	return out
}

// ColdShapes are the fabrics of the benchmark's cold workloads, as
// internal/core's benchmark builds them: the 8x8x8 torus routed toward
// all 512 terminals, and the 16x16x16 torus routed toward 32 terminals
// picked by a stride walk from the first, both by Nue at seed 1 on four
// VCs.
func ColdShapes(t testing.TB) []Case {
	var out []Case
	for _, s := range []struct {
		name         string
		dims, sample int
	}{{"torus512", 8, 0}, {"torus4k-32", 16, 32}} {
		net := topology.Torus3D(s.dims, s.dims, s.dims, 1, 1).Net
		dests := net.Terminals()
		if s.sample > 0 {
			for i := range s.sample {
				dests[i] = dests[i*(len(dests)/s.sample)]
			}
			dests = dests[:s.sample]
		}
		res, err := engines.Nue(1, 1).Route(net, dests, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		out = append(out, Case{Name: s.name, Net: net, Res: res})
	}
	return out
}

// ReachSum is the sum over c's destinations of the nodes that reach one:
// with the owed pairs added, the bound on a certifier's table lookups.
func ReachSum(c Case) int {
	n := 0
	for _, d := range c.Res.Table.Dests() {
		n += len(bfs.Reverse(c.Net, d).Order)
	}
	return n
}

// treeRouting routes every destination along a spanning tree: the first
// of trees that holds both the switch and the destination.
func treeRouting(net *graph.Network, trees ...*bfs.Tree) *routing.Result {
	tbl := routing.NewTable(net, dests(net))
	for _, d := range tbl.Dests() {
		for _, s := range net.Switches() {
			for _, tree := range trees {
				if p := tree.TreePath(s, d); len(p) > 0 {
					tbl.Set(s, d, p[0])
					break
				}
			}
		}
	}
	return &routing.Result{Algorithm: "tree", Table: tbl, VCs: 1}
}

// alternatingLayers turns a DestLayer result into a PairLayer one with
// twice the lanes in which odd sources ride lane l+VCs where even ones
// ride l: consecutive sources of a destination never share a service
// level, yet share their table suffixes, and both copies of every
// dependency are owed.
func alternatingLayers(res *routing.Result, net *graph.Network) *routing.Result {
	out := *res
	out.DestLayer = nil
	out.LayerCDG = nil
	out.VCs = 2 * res.VCs
	out.PairLayer = make([][]uint8, net.NumNodes())
	for n := range out.PairLayer {
		row := append([]uint8(nil), res.DestLayer...)
		if n%2 == 1 {
			for i := range row {
				row[i] += uint8(res.VCs)
			}
		}
		out.PairLayer[n] = row
	}
	return &out
}

// Planted returns unsound cases: one defect each in an otherwise sound
// Nue routing, planted for one destination d either in the table entry
// every path to d shares (at d's switch, one hop before d), or in an
// entry only the last source of d uses (at that source's switch, which
// no other path to d crosses). The defects are a dropped entry, an entry
// on a failed channel, an entry that leaves another node, a two-node
// forwarding cycle, and a lane at the VC budget. A shared defect must be
// blamed on the first source in iteration order, a private one on the
// last, and both certifiers must name the pair their reference names.
func Planted(t testing.TB) []Case {
	tp := topology.Torus3D(4, 4, 3, 1, 1)
	net := tp.Net
	base := Nue(t, net, 1, 2)
	d, last, leaf := plantSite(t, net, base)
	att := net.TerminalSwitch(d)

	var out []Case
	for _, site := range []struct {
		name string
		sw   graph.NodeID // the switch whose entry for d is corrupted
		back graph.NodeID // a neighbour whose own entry for d leads to sw
	}{
		{"shared-suffix", att, graph.NoNode},
		{"private-prefix", leaf, last},
	} {
		sw, back := site.sw, site.back
		good := base.Table.Next(sw, d)
		if back == graph.NoNode {
			for _, c := range net.In(sw) {
				if from := net.Channel(c).From; net.IsSwitch(from) && base.Table.Next(from, d) == c {
					back = from
				}
			}
		}
		// A switch-to-switch channel out of sw, other than the good entry.
		var spare graph.ChannelID = graph.NoChannel
		for _, c := range net.Out(sw) {
			if c != good && net.IsSwitch(net.Channel(c).To) && net.Channel(c).To != back {
				spare = c
			}
		}
		if back == graph.NoNode || spare == graph.NoChannel {
			t.Fatalf("planted %s: no neighbour routed through switch %d, or no spare channel", site.name, sw)
		}
		mutate := func(name string, c graph.ChannelID, on *graph.Network) {
			res := *base
			res.Table = base.Table.Clone(nil)
			res.Table.Set(sw, d, c)
			out = append(out, Case{Name: site.name + "/" + name, Net: on, Res: &res})
		}
		mutate("dropped-entry", graph.NoChannel, net)
		broken := net.Clone()
		broken.SetChannelFailed(spare, true)
		mutate("failed-channel", spare, broken)
		mutate("wrong-node", net.Out(back)[0], net)
		mutate("two-cycle", net.FindChannel(sw, back), net)

		// Lane at the budget. Shared: the channel into d carries only
		// traffic to d, so an SL2VL map can single it out. Private: only
		// the pair (last, d) is given an out-of-budget service level.
		res := *base
		if sw == att {
			res.SLToVL = func(sl uint8, c graph.ChannelID) uint8 {
				if c == good {
					return uint8(base.VCs)
				}
				return sl
			}
		} else {
			res.SLToVL = func(sl uint8, _ graph.ChannelID) uint8 { return sl }
			res.DestLayer = nil
			res.PairLayer = make([][]uint8, net.NumNodes())
			for n := range res.PairLayer {
				res.PairLayer[n] = append([]uint8(nil), base.DestLayer...)
			}
			res.PairLayer[last][base.Table.DestIndex(d)] = uint8(base.VCs)
		}
		out = append(out, Case{Name: site.name + "/lane-at-budget", Net: net, Res: &res})
	}
	return out
}

// Mixed is the sequence a certifier that keeps its scratch from call to
// call is run through, so that each call meets arrays an unlike call
// left: a sound Nue routing of the 6x6x4 torus on four lanes; a cyclic
// routing of the same torus on two (CyclicLanes' kind), whose walks meet
// the marks the first left on nodes of the same numbers; an unreachable
// pair, a forwarding loop and a lane at the VC budget (from Planted, on
// a smaller torus); the two islands joined one way and then apart, where
// the same nodes reach fewer destinations than in the call before; a
// small sound routing with per-pair layers; and the first case again.
func Mixed(t testing.TB) []Case {
	tp := topology.Torus3D(6, 6, 4, 1, 1)
	large := Case{Name: "large", Net: tp.Net, Res: Nue(t, tp.Net, 1, 4)}
	planted := map[string]Case{}
	for _, c := range Planted(t) {
		planted[c.Name] = c
	}
	return []Case{large, cyclicLanes(t, tp), planted["shared-suffix/dropped-entry"], planted["shared-suffix/two-cycle"],
		planted["shared-suffix/lane-at-budget"], islands("one-way-bridge", true), islands("two-components", false), TwoLanes(), large}
}

// plantSite picks the destination for Planted: one whose last source in
// iteration order enters the fabric at a switch (leaf) that no other
// source's path to d crosses.
func plantSite(t testing.TB, net *graph.Network, res *routing.Result) (d, last, leaf graph.NodeID) {
	t.Helper()
	terms := net.Terminals()
	for _, d := range terms {
		last := terms[len(terms)-1]
		if last == d {
			continue
		}
		leaf := net.TerminalSwitch(last)
		private := leaf != net.TerminalSwitch(d)
		for _, s := range terms {
			if s == d || s == last {
				continue
			}
			p, err := routing.Walk(net, res, s, d, nil)
			if err != nil {
				t.Fatalf("planted: base routing: %v", err)
			}
			for _, c := range p {
				private = private && net.Channel(c).From != leaf
			}
		}
		if private {
			return d, last, leaf
		}
	}
	t.Fatal("planted: no destination leaves the last source's switch private")
	return
}
