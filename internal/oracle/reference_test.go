package oracle

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
)

// ReferenceCertify is the full-walk reference Certify is tested against:
// the same stages as Certify, but every owed pair is walked from its
// source to its destination by referenceWalk — no settled marks, no
// depths, a fresh loop-mark slice per pair — so its Steps is the sum of
// the path lengths. It lives in a test file: production code has one
// certifier.
func ReferenceCertify(net *graph.Network, res *routing.Result, opt Options) (*Certificate, error) {
	cert := &Certificate{Layers: effectiveLayers(res)}
	if err := checkShape(net, res, cert); err != nil {
		return cert, err
	}
	sources := opt.Sources
	if sources == nil {
		sources = defaultSources(net)
	}
	dg := newDepGraph(net.NumChannels(), cert.Layers)
	for _, d := range res.Table.Dests() {
		if len(net.Out(d)) == 0 {
			continue
		}
		// Nodes that can reach d: sweep over reversed channels.
		reach := make([]bool, net.NumNodes())
		reach[d] = true
		for queue := []graph.NodeID{d}; len(queue) > 0; queue = queue[1:] {
			for _, c := range net.In(queue[0]) {
				if from := net.Channel(c).From; !reach[from] {
					reach[from] = true
					queue = append(queue, from)
				}
			}
		}
		for _, s := range sources {
			if s == d || !reach[s] {
				continue
			}
			var hops int
			var err error
			if p := explicitPath(res, s, d); p != nil {
				hops, err = walkExplicit(net, res, s, d, p, dg)
			} else {
				hops, err = referenceWalk(net, res, s, d, cert, dg)
			}
			if err != nil {
				return cert, err
			}
			cert.Pairs++
			if hops > cert.MaxHops {
				cert.MaxHops = hops
			}
		}
	}
	cert.Connected = true
	var castIssue error
	if res.Cast != nil {
		var err error
		if castIssue, err = walkCast(net, res, cert, dg); err != nil {
			return cert, err
		}
	}
	cert.Deps = dg.numDeps()
	if cycle := dg.findCycle(); cycle != nil {
		return cert, &CycleError{Witness: dg.witness(net, cycle)}
	}
	cert.DeadlockFree = true
	if castIssue != nil {
		return cert, castIssue
	}
	if opt.MaxVCs > 0 && cert.Layers > opt.MaxVCs {
		return cert, &BudgetError{Used: cert.Layers, Budget: opt.MaxVCs}
	}
	return cert, nil
}

// referenceWalk follows the table from s all the way to d.
func referenceWalk(net *graph.Network, res *routing.Result, s, d graph.NodeID, cert *Certificate, dg *depGraph) (int, error) {
	sl := res.Layer(s, d)
	onPath := make([]bool, net.NumNodes())
	onPath[s] = true
	cur := s
	prev := graph.NoChannel
	var prevVL uint8
	hops := 0
	for cur != d {
		c := res.Table.Next(cur, d)
		cert.Steps++
		if c == graph.NoChannel {
			return hops, &UnreachableError{Src: s, Dst: d, At: cur}
		}
		ch := net.Channel(c)
		if ch.Failed {
			return hops, &PathError{Src: s, Dst: d, Hop: hops, Reason: fmt.Sprintf("table entry at node %d uses failed channel %d", cur, c)}
		}
		if ch.From != cur {
			return hops, &PathError{Src: s, Dst: d, Hop: hops, Reason: fmt.Sprintf("table entry at node %d is channel (%d,%d)", cur, ch.From, ch.To)}
		}
		vl, err := laneOf(res, sl, c, dg.layers, s, d, hops)
		if err != nil {
			return hops, err
		}
		if prev != graph.NoChannel {
			dg.add(prev, prevVL, c, vl)
		}
		prev, prevVL = c, vl
		cur = ch.To
		hops++
		if onPath[cur] {
			return hops, &LoopError{Src: s, Dst: d, Repeat: cur}
		}
		onPath[cur] = true
	}
	return hops, nil
}
