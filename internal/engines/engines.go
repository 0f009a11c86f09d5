// Package engines is the one roster of routing engines: which names
// exist, what topology metadata each engine is built from, and which of
// them make up the differential-testing roster (internal/oracle/stress)
// and the paper's baseline list (Fig. 1 / Fig. 10). The facade, the
// binaries, the experiments and the test fixtures all resolve engines
// here, so "which engines apply to this topology" has one answer.
package engines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/angara"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/ftree"
	"repro/internal/routing/fullmesh"
	"repro/internal/routing/lash"
	"repro/internal/routing/minhop"
	"repro/internal/routing/smart"
	"repro/internal/routing/updn"
	"repro/internal/topology"
)

// entry is one engine of the roster.
type entry struct {
	name string
	// meta reports whether a topology carries the metadata build reads
	// (nil: none); requires is how ByName's error names that metadata.
	meta     func(*topology.Topology) bool
	requires string
	// differential puts the engine on the stress harness's roster,
	// baseline on the paper's comparator list. Both lists are in table
	// order.
	differential, baseline bool
	// build is called only with a topology that carries the metadata.
	// Engines that do not parallelize ignore workers, deterministic ones
	// seed.
	build func(tp *topology.Topology, seed int64, workers int) routing.Engine
}

func tree(tp *topology.Topology) bool  { return tp.Tree != nil }
func torus(tp *topology.Topology) bool { return tp.Torus != nil }
func mesh(tp *topology.Topology) bool  { return tp.Mesh != nil }

func (e entry) appliesTo(tp *topology.Topology) bool { return e.meta == nil || e.meta(tp) }

func fixed(e routing.Engine) func(*topology.Topology, int64, int) routing.Engine {
	return func(*topology.Topology, int64, int) routing.Engine { return e }
}

// table order is load-bearing: it is the order of every differential
// roster (stress replay strings, certtest case names, nueverify's lines)
// and of the baseline rows of Fig. 1 / Fig. 10.
var table = []entry{
	{name: "nue", differential: true,
		build: func(_ *topology.Topology, seed int64, workers int) routing.Engine { return Nue(seed, workers) }},
	{name: "updn", differential: true, baseline: true, build: fixed(updn.Engine{})},
	{name: "lash", differential: true, baseline: true, build: fixed(lash.Engine{})},
	{name: "dfsssp", differential: true, baseline: true, build: fixed(dfsssp.Engine{})},
	{name: "minhop", differential: true, build: fixed(minhop.MinHop{})},
	{name: "exists", differential: true, build: fixed(oracle.ExistsEngine{})},
	{name: "ftree", meta: tree, requires: "a fat-tree topology", differential: true, baseline: true,
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return ftree.Engine{Level: tp.Tree.Level} }},
	{name: "dor", meta: torus, requires: "a torus topology", differential: true,
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return dor.Engine{Meta: tp.Torus} }},
	{name: "torus2qos", meta: torus, requires: "a torus topology", differential: true, baseline: true,
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine {
			return dor.Engine{Meta: tp.Torus, Datelines: true}
		}},
	{name: "angara", meta: torus, requires: "a torus or mesh topology", differential: true,
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return angara.Engine{Meta: tp.Torus} }},
	{name: "fullmesh", meta: mesh, requires: "a full-mesh fabric", differential: true,
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return fullmesh.Engine{Meta: tp.Mesh} }},
	{name: "mupdn", build: fixed(updn.MultiEngine{})},
	{name: "lashtor", build: fixed(lash.TOREngine{})},
	{name: "smart", build: fixed(smart.Engine{})},
	{name: "sssp", build: fixed(minhop.SSSP{})},
}

// Nue builds a Nue engine with the evaluation defaults. The routing is
// bit-identical for every worker budget (0 = GOMAXPROCS).
func Nue(seed int64, workers int) routing.Engine {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Workers = workers
	return core.New(opts)
}

// Names lists every name ByName accepts.
func Names() []string { return names(func(entry) bool { return true }) }

// DifferentialNames lists every name a differential roster can contain.
func DifferentialNames() []string { return names(isDifferential) }

func names(member func(entry) bool) []string {
	var out []string
	for _, e := range table {
		if member(e) {
			out = append(out, e.name)
		}
	}
	return out
}

func isDifferential(e entry) bool { return e.differential }
func isBaseline(e entry) bool     { return e.baseline }

// ByName resolves an engine name against the topology, refusing an engine
// whose metadata the topology does not carry.
func ByName(name string, tp *topology.Topology, seed int64, workers int) (routing.Engine, error) {
	for _, e := range table {
		if e.name != name {
			continue
		}
		if !e.appliesTo(tp) {
			return nil, fmt.Errorf("%s requires %s", name, e.requires)
		}
		return e.build(tp, seed, workers), nil
	}
	return nil, fmt.Errorf("unknown routing engine %q", name)
}

// Baselines returns the OpenSM comparator engines applicable to the
// topology, in the paper's presentation order.
func Baselines(tp *topology.Topology) []routing.Engine {
	return applicable(tp, 0, 0, isBaseline)
}

// Differential returns the differential-testing roster for the topology.
// One-way faults break the duplex assumption baked into the
// destination-based engines, so such a network's roster is just the
// existence witness (must certify exactly when the decision procedure
// says routable) and the MinHop negative baseline — witness first, the
// reverse of table order, pinned by replay strings and case names.
func Differential(tp *topology.Topology, seed int64, workers int) []routing.Engine {
	if !tp.Net.Symmetric() {
		return []routing.Engine{oracle.ExistsEngine{}, minhop.MinHop{}}
	}
	return applicable(tp, seed, workers, isDifferential)
}

func applicable(tp *topology.Topology, seed int64, workers int, member func(entry) bool) []routing.Engine {
	var out []routing.Engine
	for _, e := range table {
		if member(e) && e.appliesTo(tp) {
			out = append(out, e.build(tp, seed, workers))
		}
	}
	return out
}
