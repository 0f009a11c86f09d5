package oracle

import "repro/internal/graph"

// SweepReach runs the reach-class sweep Certify runs and returns the set
// of nodes that reach a connected destination, and the number of classes
// it took.
func SweepReach(net *graph.Network, dests []graph.NodeID) (of func(graph.NodeID) []bool, classes int) {
	r := sweepReach(net, dests)
	return r.of, len(r.reached)
}

// sweepReach is a fresh reach sweep.
func sweepReach(net *graph.Network, dests []graph.NodeID) *reachClasses {
	r := &reachClasses{}
	r.sweep(net, dests)
	return r
}

// newDepGraph is a fresh, empty dependency graph.
func newDepGraph(channels, layers int) *depGraph {
	g := &depGraph{}
	g.reset(channels, layers)
	return g
}

// DropScratch drops the scratch Certify and CertifyTransition keep, so
// that the next call of either starts from a zero one.
func DropScratch() {
	certifyKept.Store(nil)
	transitionKept.Store(nil)
}
