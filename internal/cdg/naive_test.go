package cdg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/topology"
)

// TestQuickNaiveMatchesOmega is a differential test: the ω-numbered cycle
// search of §4.6.1 and the naive full-acyclicity check must accept and
// block exactly the same edge sequences.
func TestQuickNaiveMatchesOmega(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		tp := topology.RandomTopology(rng, n, n+rng.Intn(n), 0)
		g := tp.Net

		fast := NewComplete(g)
		slow := NewComplete(g)
		slow.Naive = true

		// Optionally shared escape paths.
		if rng.Intn(2) == 0 {
			root := graph.NodeID(rng.Intn(g.NumNodes()))
			dests := []graph.NodeID{graph.NodeID(rng.Intn(g.NumNodes()))}
			fast.MarkEscapePaths(bfs.SpanningTree(g, root), dests)
			slow.MarkEscapePaths(bfs.SpanningTree(g, root), dests)
		}
		for step := 0; step < 200; step++ {
			cp := graph.ChannelID(rng.Intn(g.NumChannels()))
			succ := fast.Succ(cp)
			if len(succ) == 0 {
				continue
			}
			cq := succ[rng.Intn(len(succ))]
			fast.SeedChannel(cp)
			slow.SeedChannel(cp)
			a := tryUse(fast, cp, cq)
			b := tryUse(slow, cp, cq)
			if a != b {
				t.Logf("seed %d step %d: omega=%v naive=%v for edge (%d,%d)", seed, step, a, b, cp, cq)
				return false
			}
		}
		return fast.UsedAcyclic() && slow.UsedAcyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNaiveBlocksThreeCycle(t *testing.T) {
	tp := topology.Ring(3, 0)
	g := tp.Net
	d := NewComplete(g)
	d.Naive = true
	c01 := g.FindChannel(0, 1)
	c12 := g.FindChannel(1, 2)
	c20 := g.FindChannel(2, 0)
	d.SeedChannel(c01)
	if !tryUse(d, c01, c12) || !tryUse(d, c12, c20) {
		t.Fatal("naive mode rejected acyclic edges")
	}
	if tryUse(d, c20, c01) {
		t.Fatal("naive mode allowed a dependency cycle")
	}
	if !d.UsedAcyclic() {
		t.Fatal("naive mode left a cyclic used subgraph")
	}
}
