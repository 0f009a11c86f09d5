// Package engines is the one roster of routing engines: which names
// exist, what topology metadata each engine is built from, and which of
// them make up the paper's baseline list (Fig. 1 / Fig. 10). Every
// engine of the roster is on the differential-testing roster
// (internal/oracle/stress): an engine lives in the repository only if
// the differential harness tests it. The facade, the binaries, the
// experiments and the test fixtures all resolve engines here, so "which
// engines apply to this topology" has one answer.
package engines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/oracle/exists"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/ftree"
	"repro/internal/routing/fullmesh"
	"repro/internal/routing/lash"
	"repro/internal/routing/minhop"
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
	// baseline puts the engine on the paper's comparator list, in table
	// order.
	baseline bool
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
	{name: "nue",
		build: func(_ *topology.Topology, seed int64, workers int) routing.Engine { return Nue(seed, workers) }},
	{name: "updn", baseline: true, build: fixed(updn.Engine{})},
	{name: "lash", baseline: true, build: fixed(lash.Engine{})},
	{name: "dfsssp", baseline: true, build: fixed(dfsssp.Engine{})},
	{name: "minhop", build: fixed(minhop.MinHop{})},
	{name: "exists", build: fixed(exists.Engine{})},
	{name: "ftree", meta: tree, requires: "a fat-tree topology", baseline: true,
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return ftree.Engine{Level: tp.Tree.Level} }},
	{name: "dor", meta: torus, requires: "a torus topology",
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return dor.Engine{Meta: tp.Torus} }},
	{name: "torus2qos", meta: torus, requires: "a torus topology", baseline: true,
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine {
			return dor.Engine{Meta: tp.Torus, Datelines: true}
		}},
	{name: "angara", meta: torus, requires: "a torus or mesh topology",
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return dor.Angara{Meta: tp.Torus} }},
	{name: "fullmesh", meta: mesh, requires: "a full-mesh fabric",
		build: func(tp *topology.Topology, _ int64, _ int) routing.Engine { return fullmesh.Engine{Meta: tp.Mesh} }},
}

// Nue builds a Nue engine with the evaluation defaults. The routing is
// bit-identical for every worker budget (0 = GOMAXPROCS).
func Nue(seed int64, workers int) routing.Engine {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Workers = workers
	return core.New(opts)
}

// Names lists every name ByName accepts, in table order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

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
	return applicable(tp, 0, 0, true)
}

// Differential returns the differential-testing roster for the topology:
// every engine of the table that applies to it, in table order. One-way
// faults break the duplex assumption baked into the destination-based
// engines, so such a network's roster is just the existence witness
// (must certify exactly when the decision procedure says routable) and
// the MinHop negative baseline — witness first, the reverse of table
// order, pinned by replay strings and case names.
func Differential(tp *topology.Topology, seed int64, workers int) []routing.Engine {
	if !tp.Net.Symmetric() {
		return []routing.Engine{exists.Engine{}, minhop.MinHop{}}
	}
	return applicable(tp, seed, workers, false)
}

// applicable builds, in table order, every engine that applies to tp (only
// the baselines if baselinesOnly).
func applicable(tp *topology.Topology, seed int64, workers int, baselinesOnly bool) []routing.Engine {
	var out []routing.Engine
	for _, e := range table {
		if (e.baseline || !baselinesOnly) && e.appliesTo(tp) {
			out = append(out, e.build(tp, seed, workers))
		}
	}
	return out
}
