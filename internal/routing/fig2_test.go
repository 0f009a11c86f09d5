package routing_test

import (
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// TestFig2CounterClockwiseCDGHasDeadlock reproduces the paper's Fig. 2:
// the 5-ring with shortcut routed by a "shortest-path, counter-clockwise"
// function induces a channel dependency graph with a potential deadlock
// (the dashed cycle of Fig. 2b, formed by 2-hop paths on the dashed
// channels). The verifier must find that cycle.
func TestFig2CounterClockwiseCDGHasDeadlock(t *testing.T) {
	tp := topology.RingWithShortcut() // n1..n5 = 0..4
	g := tp.Net
	dests := g.Nodes()
	tbl := routing.NewTable(g, dests)
	// Shortest-path first, counter-clockwise (decreasing index around the
	// ring) as tie-break. BFS from each destination over a neighbor order
	// that prefers the counter-clockwise ring direction reproduces this.
	ccwNext := func(s, d graph.NodeID) graph.ChannelID {
		// Hop distances from d.
		dist := bfs.Forward(g, d).Dist
		// Candidate neighbors one step closer, preferring counter-
		// clockwise (s -> s-1 mod 5), then the shortcut, then clockwise.
		prefs := []graph.NodeID{(s + 4) % 5}
		switch s {
		case 2:
			prefs = append(prefs, 4)
		case 4:
			prefs = append(prefs, 2)
		}
		prefs = append(prefs, (s+1)%5)
		for _, v := range prefs {
			c := g.FindChannel(s, v)
			if c != graph.NoChannel && dist[v] == dist[s]-1 {
				return c
			}
		}
		return graph.NoChannel
	}
	for _, d := range dests {
		for _, s := range g.Switches() {
			if s == d {
				continue
			}
			if c := ccwNext(s, d); c != graph.NoChannel {
				tbl.Set(s, d, c)
			}
		}
	}
	res := &routing.Result{Algorithm: "fig2-ccw", Table: tbl, VCs: 1}
	rep, err := verify.Check(g, res, nil)
	if err == nil || rep.DeadlockFree {
		t.Fatal("Fig. 2's counter-clockwise routing should induce a cyclic CDG")
	}
	// The same routing on a single virtual layer per destination (5
	// layers) is deadlock-free — Theorem 1 is about the per-layer CDG.
	res.VCs = 5
	res.DestLayer = []uint8{0, 1, 2, 3, 4}
	rep, err = verify.Check(g, res, nil)
	if err != nil {
		t.Fatalf("per-destination layering still cyclic: %v", err)
	}
	if !rep.DeadlockFree {
		t.Fatal("per-destination layers should be deadlock-free")
	}
}
