package verify

import "repro/internal/graph"

// DestLanes is destLanes, for tests that must know which cases Check
// walks one lane per goroutine.
var DestLanes = destLanes

// SweepReach runs the reach-class sweep Check runs and returns the set of
// nodes that reach a connected destination, and the number of classes
// (reverse sweeps) it took.
func SweepReach(net *graph.Network, dests []graph.NodeID) (of func(graph.NodeID) []bool, classes int) {
	r := &reachClasses{}
	r.sweep(net, dests)
	return r.of, len(r.sets)
}

// DropScratch drops the scratch Check keeps, so that the next call starts
// from a zero one.
func DropScratch() { kept.Store(nil) }
