package oracle

import "repro/internal/graph"

// SweepReach runs the reach-class sweep Certify runs and returns the set
// of nodes that reach a connected destination, and the number of classes
// it took.
func SweepReach(net *graph.Network, dests []graph.NodeID) (of func(graph.NodeID) []bool, classes int) {
	r := sweepReach(net, dests)
	return r.of, len(r.reached)
}
