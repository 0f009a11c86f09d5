// Package repro is a from-scratch Go reproduction of
//
//	Domke, Hoefler, Matsuoka: "Routing on the Dependency Graph: A New
//	Approach to Deadlock-Free High-Performance Routing", HPDC 2016.
//
// It implements Nue routing — a topology-agnostic, destination-based,
// oblivious routing function that searches paths inside the complete
// channel dependency graph so deadlock freedom holds for ANY topology and
// ANY number of virtual channels k >= 1 — together with the OpenSM
// baseline routings the paper compares against (Up*/Down*, LASH, DFSSSP,
// fat-tree, DOR/Torus-2QoS, MinHop), topology generators for every
// network of the evaluation, a routing verifier, an edge-forwarding-index
// metric suite, and a flit-level lossless-network simulator.
//
// This file is the public facade; the implementation lives under
// internal/ (see DESIGN.md for the map). Quick start:
//
//	tp := repro.Torus3D(4, 4, 3, 4, 1)
//	res, err := repro.RouteNue(tp.Net, tp.Net.Terminals(), 4)
//	rep, err := repro.Verify(tp.Net, res)
//	sim, err := repro.SimulateAllToAll(tp.Net, res, 0)
package repro

import (
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Core graph and routing types, re-exported for API users.
type (
	// Network is an interconnection network (switches + terminals
	// connected by duplex channels).
	Network = graph.Network
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// Builder constructs custom networks.
	Builder = graph.Builder
	// Topology bundles a network with generator metadata.
	Topology = topology.Topology
	// RoutingResult is the output of any routing engine: forwarding
	// tables, VC usage and layer assignment.
	RoutingResult = routing.Result
	// Engine is the interface all routing algorithms implement.
	Engine = routing.Engine
	// NueOptions configures Nue routing.
	NueOptions = core.Options
	// VerifyReport summarizes connectivity/deadlock verification.
	VerifyReport = verify.Report
	// SimConfig tunes the flit-level simulator; SimResult its output.
	SimConfig = sim.Config
	// SimResult reports simulated throughput and deadlock status.
	SimResult = sim.Result
	// GammaStats is the edge forwarding index summary of §5.1.
	GammaStats = metrics.Gamma
)

// NewBuilder starts constructing a custom network.
func NewBuilder() *Builder { return graph.NewBuilder() }

// DefaultNueOptions returns the configuration used in the paper's
// evaluation (multilevel k-way partitioning, central escape roots, local
// backtracking and shortcuts enabled).
func DefaultNueOptions() NueOptions { return core.DefaultOptions() }

// NewNue returns a Nue routing engine.
func NewNue(opts NueOptions) Engine { return core.New(opts) }

// RouteNue routes the network toward dests with at most maxVCs virtual
// channels using the default options. Nue succeeds on every connected
// topology for every maxVCs >= 1.
func RouteNue(net *Network, dests []NodeID, maxVCs int) (*RoutingResult, error) {
	return core.New(core.DefaultOptions()).Route(net, dests, maxVCs)
}

// Route routes with a named engine of the engine roster (`nueroute -h`
// prints every name). Topology-aware engines require the metadata
// carried by generated topologies.
func Route(algo string, tp *Topology, dests []NodeID, maxVCs int) (*RoutingResult, error) {
	eng, err := engines.ByName(algo, tp, 1, 0)
	if err != nil {
		return nil, err
	}
	return eng.Route(tp.Net, dests, maxVCs)
}

// Verify checks connectivity, cycle-freedom and deadlock freedom of a
// routing result (the paper's Lemmas 1-3, mechanically).
func Verify(net *Network, res *RoutingResult) (*VerifyReport, error) {
	return verify.Check(net, res, nil)
}

// RequiredVCs reports how many virtual layers a result actually uses.
func RequiredVCs(res *RoutingResult) int { return verify.RequiredVCs(res) }

// SimulateAllToAll runs the paper's all-to-all shift exchange on the
// routed network with the paper's message size; phases = 0 simulates the
// full all-to-all.
func SimulateAllToAll(net *Network, res *RoutingResult, phases int) (SimResult, error) {
	var terms []NodeID
	for _, t := range net.Terminals() {
		if net.Degree(t) > 0 {
			terms = append(terms, t)
		}
	}
	return sim.Run(net, res, sim.AllToAllShift(terms, phases), sim.PaperConfig())
}

// Simulate runs an arbitrary message list under a custom configuration.
func Simulate(net *Network, res *RoutingResult, msgs []sim.Message, cfg SimConfig) (SimResult, error) {
	return sim.Run(net, res, msgs, cfg)
}

// AllToAllShift builds the paper's traffic pattern over the given
// terminals.
func AllToAllShift(terminals []NodeID, phases int) []sim.Message {
	return sim.AllToAllShift(terminals, phases)
}

// EdgeForwardingIndex computes the γ statistics of §5.1.
func EdgeForwardingIndex(net *Network, res *RoutingResult) GammaStats {
	return metrics.EdgeForwardingIndex(net, res, nil)
}

// Topology generators: the families the examples build. Every family of
// the evaluation is in internal/topology, and behind the binaries' -topo
// and -type flags by name; a file written by topogen comes back through
// ReadTopology.

// Torus3D builds a dx x dy x dz 3D torus with t terminals per switch and
// r parallel links per connection.
func Torus3D(dx, dy, dz, t, r int) *Topology { return topology.Torus3D(dx, dy, dz, t, r) }

// Mesh2D builds a 2D mesh of tiles, the typical NoC floor plan.
func Mesh2D(dx, dy, t int) *Topology { return topology.Mesh2D(dx, dy, t) }

// Dragonfly builds a dragonfly with a switches/group, p terminals/switch,
// h global ports/switch and g groups.
func Dragonfly(a, p, h, g int) *Topology { return topology.Dragonfly(a, p, h, g) }

// RandomTopology builds a connected random network (§5.1).
func RandomTopology(rng *rand.Rand, switches, ssLinks, t int) *Topology {
	return topology.RandomTopology(rng, switches, ssLinks, t)
}

// InjectLinkFailures fails approximately the given fraction of
// switch-to-switch links without disconnecting the network.
func InjectLinkFailures(tp *Topology, rng *rand.Rand, fraction float64) (*Topology, int) {
	return topology.InjectLinkFailures(tp, rng, fraction)
}

// FailSwitch disconnects one switch (and its terminals).
func FailSwitch(tp *Topology, s NodeID) *Topology { return topology.FailSwitch(tp, s) }

// WriteTopology/ReadTopology serialize networks in the text format shared
// by the cmd/ tools.
func WriteTopology(w io.Writer, tp *Topology) error { return topology.Write(w, tp) }

// ReadTopology parses the topogen text format.
func ReadTopology(r io.Reader) (*Topology, error) { return topology.Read(r) }
