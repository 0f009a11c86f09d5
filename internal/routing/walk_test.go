package routing_test

import (
	"errors"
	"testing"

	"repro/internal/bfs"
	"repro/internal/flowsim"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
	"repro/internal/workload"
)

// treeRing routes a 4-switch ring (switches 0..3, terminals 4..7) along a
// spanning tree: valid and deadlock-free, so every refusal below is the
// corruption's.
func treeRing(t *testing.T) (*graph.Network, *routing.Result) {
	t.Helper()
	g := topology.Ring(4, 1).Net
	tree := bfs.SpanningTree(g, 0)
	tbl := routing.NewTable(g, g.Terminals())
	for _, d := range g.Terminals() {
		for _, s := range g.Switches() {
			if p := tree.TreePath(s, d); len(p) > 0 {
				tbl.Set(s, d, p[0])
			}
		}
	}
	return g, &routing.Result{Table: tbl, VCs: 1}
}

// TestWalk: routing.Walk is the single production authority on what a
// valid path is. Each corruption of the pair 4 -> 6 (path 4, s0, s1, s2,
// 6) must come back with its kind, node and hop, map onto the sentinels
// as before, and be refused by the verifier, the fluid simulator and the
// oracle alike.
func TestWalk(t *testing.T) {
	const src, dst = graph.NodeID(4), graph.NodeID(6)
	g, res := treeRing(t)
	base, err := routing.Walk(g, res, src, dst, nil)
	if err != nil || len(base) != 4 {
		t.Fatalf("fixture path: %v, %v", base, err)
	}
	s0, s1 := g.Channel(base[1]).From, g.Channel(base[1]).To
	key := routing.PairKey(src, dst)

	cases := []struct {
		name    string
		corrupt func(g *graph.Network, res *routing.Result) *graph.Network
		kind    routing.WalkKind
		at      graph.NodeID
		hop     int
		is      error
	}{
		{"missing entry", func(g *graph.Network, res *routing.Result) *graph.Network {
			res.Table.Set(s1, dst, graph.NoChannel)
			return g
		}, routing.WalkNoEntry, s1, 2, routing.ErrNoRoute},
		{"loop", func(g *graph.Network, res *routing.Result) *graph.Network {
			res.Table.Set(s1, dst, g.FindChannel(s1, s0))
			return g
		}, routing.WalkLoop, s0, 3, routing.ErrRoutingLoop},
		{"wrong-node entry", func(g *graph.Network, res *routing.Result) *graph.Network {
			res.Table.Set(s0, dst, base[2])
			return g
		}, routing.WalkWrongNode, s0, 1, nil},
		{"failed channel", func(g *graph.Network, res *routing.Result) *graph.Network {
			g = g.Clone()
			g.SetChannelFailed(base[2], true)
			return g
		}, routing.WalkFailedChannel, s1, 2, nil},
		{"override empty", func(g *graph.Network, res *routing.Result) *graph.Network {
			res.PairPath = map[uint64][]graph.ChannelID{key: {}}
			return g
		}, routing.WalkOverrideEmpty, src, 0, nil},
		{"override discontinuous", func(g *graph.Network, res *routing.Result) *graph.Network {
			res.PairPath = map[uint64][]graph.ChannelID{key: {base[0], base[2]}}
			return g
		}, routing.WalkOverrideDiscontinuous, s0, 1, nil},
		{"override short", func(g *graph.Network, res *routing.Result) *graph.Network {
			res.PairPath = map[uint64][]graph.ChannelID{key: base[:2]}
			return g
		}, routing.WalkOverrideShort, s1, 2, nil},
		{"override revisiting", func(g *graph.Network, res *routing.Result) *graph.Network {
			res.PairPath = map[uint64][]graph.ChannelID{key: {
				base[0], base[1], g.FindChannel(s1, s0), base[1], base[2], base[3],
			}}
			return g
		}, routing.WalkLoop, s0, 3, routing.ErrRoutingLoop},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, res := treeRing(t)
			g = tc.corrupt(g, res)

			p, err := routing.Walk(g, res, src, dst, nil)
			var we *routing.WalkError
			if !errors.As(err, &we) || p != nil {
				t.Fatalf("Walk = %v, %v; want a *WalkError", p, err)
			}
			if want := (routing.WalkError{Src: src, Dst: dst, At: tc.at, Hop: tc.hop, Kind: tc.kind}); *we != want {
				t.Errorf("Walk error %+v, want %+v", *we, want)
			}
			for _, sentinel := range []error{routing.ErrNoRoute, routing.ErrRoutingLoop} {
				if errors.Is(err, sentinel) != (sentinel == tc.is) {
					t.Errorf("errors.Is(%v, %v) = %v", err, sentinel, sentinel != tc.is)
				}
			}

			we = nil
			if _, err := verify.Check(g, res, nil); !errors.As(err, &we) || we.Kind != tc.kind {
				t.Errorf("verify.Check: %v, want a %v walk error", err, tc.kind)
			}
			we = nil
			_, err = flowsim.Run(g, res, []workload.Flow{{Src: src, Dst: dst, Bytes: 1}}, flowsim.Config{})
			if fe := new(*flowsim.WalkError); !errors.As(err, fe) || !errors.As(err, &we) || we.Kind != tc.kind {
				t.Errorf("flowsim.Run: %v, want a %v walk error", err, tc.kind)
			}
			if _, err := oracle.Certify(g, res, oracle.Options{MaxVCs: 1}); err == nil {
				t.Error("oracle.Certify accepted the corrupted result")
			}
		})
	}
}

// TestWalkUntil: with a stop mask the table walk ends at the first node
// carrying the stamp — the source itself included — and returns the hops
// up to it; other stamps, a nil mask and PairPath overrides walk in full;
// a loop among unmarked nodes is reported as Walk reports it.
func TestWalkUntil(t *testing.T) {
	const src, dst = graph.NodeID(4), graph.NodeID(6)
	g, res := treeRing(t)
	base := mustWalk(t, g, res, src, dst)
	s1 := g.Channel(base[1]).To
	settled := make([]int32, g.NumNodes())
	walk := func(stamp int32) []graph.ChannelID {
		t.Helper()
		p, err := routing.WalkUntil(g, res, src, dst, nil, settled, stamp)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if p := walk(7); len(p) != len(base) {
		t.Errorf("nothing settled: %d hops, want %d", len(p), len(base))
	}
	settled[s1] = 7
	if p := walk(7); len(p) != 2 || g.Channel(p[1]).To != s1 {
		t.Errorf("settled node %d: path %v, want the first two hops of %v", s1, p, base)
	}
	if p := walk(8); len(p) != len(base) {
		t.Errorf("stale stamp: %d hops, want %d", len(p), len(base))
	}
	settled[src] = 7
	if p := walk(7); len(p) != 0 {
		t.Errorf("settled source: path %v, want none", p)
	}
	res.PairPath = map[uint64][]graph.ChannelID{routing.PairKey(src, dst): base}
	if p := walk(7); len(p) != len(base) {
		t.Errorf("override: %d hops, want all %d", len(p), len(base))
	}
	res.PairPath = nil

	settled[src], settled[s1] = 0, 0
	settled[dst] = 7
	s0 := g.Channel(base[1]).From
	res.Table.Set(s1, dst, g.FindChannel(s1, s0))
	_, err := routing.WalkUntil(g, res, src, dst, nil, settled, 7)
	var we *routing.WalkError
	if want := (routing.WalkError{Src: src, Dst: dst, At: s0, Hop: 3, Kind: routing.WalkLoop}); !errors.As(err, &we) || *we != want {
		t.Errorf("loop short of every settled node: %v, want %+v", err, want)
	}
}

// TestWalkAllocatesNothing: with a warm buffer neither a table walk nor an
// override walk touches the heap.
func TestWalkAllocatesNothing(t *testing.T) {
	g, res := treeRing(t)
	buf, err := routing.Walk(g, res, 4, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.PairPath = map[uint64][]graph.ChannelID{routing.PairKey(5, 7): mustWalk(t, g, res, 5, 7)}
	for _, pair := range [][2]graph.NodeID{{4, 6}, {5, 7}} {
		if n := testing.AllocsPerRun(100, func() {
			buf, err = routing.Walk(g, res, pair[0], pair[1], buf)
		}); n != 0 || err != nil {
			t.Errorf("Walk(%d, %d): %v allocs/run, err %v", pair[0], pair[1], n, err)
		}
	}
}

func mustWalk(t *testing.T, g *graph.Network, res *routing.Result, s, d graph.NodeID) []graph.ChannelID {
	t.Helper()
	p, err := routing.Walk(g, res, s, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
