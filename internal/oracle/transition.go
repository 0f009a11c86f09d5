package oracle

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// TransitionCertificate summarizes a successful transition
// certification (and carries whatever was measured before the first
// violation on failure).
type TransitionCertificate struct {
	// Dests is the number of destination columns examined.
	Dests int
	// Deps is the number of distinct union dependency edges.
	Deps int
	// Layers is the effective layer count of the union (the larger of
	// the two results').
	Layers int
	// DeadlockFree is true once the union dependency graph was proven
	// acyclic.
	DeadlockFree bool
}

// CertifyTransition certifies that EVERY intermediate fleet state of a
// per-switch table swap from oldRes to newRes is deadlock-free — the
// compatibility condition a distribution plane needs before it may
// commit switches one at a time (UPR, Crespo et al.).
//
// During such a transition each switch forwards toward destination d
// with either its old or its new entry, so a transitional path toward d
// lives in the union of the two forwarding trees of d, and the channel
// dependencies any mixture can exercise are exactly: for every union
// entry e entering switch s, every union entry leaving s toward d. This
// function builds that union dependency graph from first principles —
// per destination, on every virtual lane traffic toward d may occupy in
// either epoch — and runs the oracle's own cycle search over it. An
// acyclic union certifies all 2^|switches| intermediate states at once;
// a cycle yields a concrete *CycleError witness (which does NOT mean
// either endpoint routing is unsafe — only that an unsynchronized swap
// between them is).
//
// The check is deliberately conservative: entries over channels that
// have failed since the old epoch still contribute dependencies (in-
// flight packets may occupy them), and in-channel/out-channel pairs are
// combined without proving a mixture reaches them.
//
// Both results must be destination-based over the same destination set
// (single-layer or DestLayer, no SLToVL / PairLayer / PairPath — the
// shapes the fabric manager publishes); anything else is a *ShapeError.
func CertifyTransition(net *graph.Network, oldRes, newRes *routing.Result, opt Options) (*TransitionCertificate, error) {
	cert := &TransitionCertificate{}
	if err := checkTransitionShape(net, oldRes, "old"); err != nil {
		return cert, err
	}
	if err := checkTransitionShape(net, newRes, "new"); err != nil {
		return cert, err
	}
	oldDests, newDests := oldRes.Table.Dests(), newRes.Table.Dests()
	if len(oldDests) != len(newDests) {
		return cert, &ShapeError{Reason: fmt.Sprintf("destination sets differ: %d vs %d", len(oldDests), len(newDests))}
	}
	for i := range oldDests {
		if oldDests[i] != newDests[i] {
			return cert, &ShapeError{Reason: fmt.Sprintf("destination column %d differs: node %d vs %d", i, oldDests[i], newDests[i])}
		}
	}
	layers := effectiveLayers(oldRes)
	if l := effectiveLayers(newRes); l > layers {
		layers = l
	}
	cert.Layers = layers

	dg := newDepGraph(net.NumChannels(), layers)
	u := &union{net: net, oldRes: oldRes, newRes: newRes, switches: net.Switches(), dg: dg}
	sharded := dg.fillLanes(distinctLanes(oldRes.DestLayer, newRes.DestLayer), func() func(int) error {
		w := u.walker()
		return func(lane int) error {
			_, err := w.addDeps(lane)
			return err
		}
	})
	if sharded {
		cert.Dests = len(newDests)
	} else {
		var err error
		if cert.Dests, err = u.walker().addDeps(allLanes); err != nil {
			return cert, err
		}
	}
	cert.Deps = dg.numDeps()
	if cycle := dg.findCycle(); cycle != nil {
		return cert, &CycleError{Witness: dg.witness(net, cycle)}
	}
	cert.DeadlockFree = true
	if opt.MaxVCs > 0 && layers > opt.MaxVCs {
		return cert, &BudgetError{Used: layers, Budget: opt.MaxVCs}
	}
	return cert, nil
}

// union is what the walkers of one transition certification share: the
// two epochs and the dependency graph they fill.
type union struct {
	net            *graph.Network
	oldRes, newRes *routing.Result
	switches       []graph.NodeID
	dg             *depGraph
}

// unionWalker adds union dependencies, with a scratch of its own.
type unionWalker struct {
	*union
	// outs[s] holds the union next hops at switch s toward the current
	// destination: old entry first, new entry second (NoChannel when
	// unpopulated or identical).
	outs [][2]graph.ChannelID
}

func (u *union) walker() *unionWalker {
	return &unionWalker{union: u, outs: make([][2]graph.ChannelID, u.net.NumNodes())}
}

// addDeps adds the union dependencies of every destination on lane
// (allLanes: on each lane the destination's traffic can hold), and
// returns how many destination columns it examined before it stopped. A
// destination that changes layer belongs to two lanes and is visited for
// each; only the dependencies of the lane asked for are added.
func (u *unionWalker) addDeps(lane int) (int, error) {
	net, oldRes, newRes, dg, outs := u.net, u.oldRes, u.newRes, u.dg, u.outs
	for i, d := range newRes.Table.Dests() {
		// Virtual lanes traffic toward d may occupy: its layer in the old
		// epoch (packets injected before the swap) and in the new one.
		lanes := laneSet(oldRes, newRes, d, i)
		mine := lane == allLanes
		for _, l := range lanes {
			if int(l) >= dg.layers {
				return i, &BudgetError{Used: int(l) + 1, Budget: dg.layers,
					Detail: fmt.Sprintf("destination %d assigned layer %d", d, l)}
			}
			mine = mine || int(l) == lane
		}
		if !mine {
			continue
		}
		if lane != allLanes {
			lanes = []uint8{uint8(lane)}
		}
		for _, s := range u.switches {
			a := oldRes.Table.Next(s, d)
			b := newRes.Table.Next(s, d)
			if b == a {
				b = graph.NoChannel
			}
			outs[s] = [2]graph.ChannelID{a, b}
		}
		// One dependency per (entry into s, entry out of s) pair, on each
		// lane the destination's traffic can hold.
		for _, s := range u.switches {
			for _, cin := range outs[s] {
				if cin == graph.NoChannel {
					continue
				}
				to := net.Channel(cin).To
				if to == d || !net.IsSwitch(to) {
					continue
				}
				for _, cout := range outs[to] {
					if cout == graph.NoChannel {
						continue
					}
					for _, l := range lanes {
						dg.add(cin, l, cout, l)
					}
				}
			}
		}
	}
	return len(newRes.Table.Dests()), nil
}

// checkTransitionShape enforces the destination-based shape contract of
// CertifyTransition on one endpoint result.
func checkTransitionShape(net *graph.Network, res *routing.Result, which string) error {
	switch {
	case res == nil || res.Table == nil:
		return &ShapeError{Reason: which + " result has no forwarding table"}
	case res.PairPath != nil:
		return &ShapeError{Reason: which + " result is source-routed (PairPath); transition certification is destination-based"}
	case res.PairLayer != nil:
		return &ShapeError{Reason: which + " result uses per-pair layers; transition certification supports DestLayer only"}
	case res.SLToVL != nil:
		return &ShapeError{Reason: which + " result uses an SL2VL mapping; transition certification supports identity lanes only"}
	case res.DestLayer != nil && len(res.DestLayer) != len(res.Table.Dests()):
		return &ShapeError{Reason: fmt.Sprintf("%s DestLayer has %d entries for %d destinations", which, len(res.DestLayer), len(res.Table.Dests()))}
	}
	return nil
}

// laneSet returns the distinct virtual lanes destination d (column i)
// occupies across the two epochs.
func laneSet(oldRes, newRes *routing.Result, d graph.NodeID, i int) []uint8 {
	var lo, ln uint8
	if oldRes.DestLayer != nil {
		lo = oldRes.DestLayer[i]
	}
	if newRes.DestLayer != nil {
		ln = newRes.DestLayer[i]
	}
	if lo == ln {
		return []uint8{lo}
	}
	return []uint8{lo, ln}
}
