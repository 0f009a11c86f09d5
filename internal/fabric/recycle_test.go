package fabric

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/topology"
)

// TestWarmFlapBytes pins what a warm churn epoch allocates: a flap, one
// link failure and its restore, on the 36-switch Dragonfly with Verify
// on. What the two epochs publish is their table and network clones,
// snapshots, results and reports; the escape plans the root cache drops
// go back to bfs's free list, and the affected marks, layer jobs and
// certification tasks are the runner's kept scratch. A flap's bytes are
// the mean over eight links, each failed and restored in turn, of the
// least of three passes after three warm-up passes, so every free list
// has grown to the largest flap. The bound is the most measured, 22,515
// bytes at GOMAXPROCS 1 to 4, plus 25%; a flap allocated 32,367 bytes
// while the root cache left the trees it dropped to the collector and
// the scratch was made per event.
func TestWarmFlapBytes(t *testing.T) {
	m, err := NewManager(topology.Dragonfly(4, 2, 2, 9), Options{MaxVCs: 4, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var links []graph.ChannelID
	for len(links) < 8 {
		ev, ok := m.RandomEvent(rng, 0.1)
		if !ok {
			t.Fatal("no link to fail")
		}
		if !slices.Contains(links, ev.Link) {
			links = append(links, ev.Link)
		}
	}
	repaired := 0
	pass := func() int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, link := range links {
			for _, kind := range [...]EventKind{LinkFail, LinkJoin} {
				rep, err := m.Apply(Event{Kind: kind, Link: link})
				if err != nil {
					t.Fatal(err)
				}
				repaired += rep.RepairedDests
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / int64(len(links))
	}
	for range 3 {
		pass()
	}
	if repaired == 0 {
		t.Fatal("no flap repaired a destination: the pin measures no repair")
	}
	bytes := pass()
	for range 2 {
		bytes = min(bytes, pass())
	}
	const want = 22515 * 5 / 4
	if bytes > want {
		t.Errorf("a warm flap allocates %d B, want at most %d B", bytes, want)
	}
	t.Logf("a warm flap allocates %d B", bytes)
}

// TestCachedPlanNeverRecycled holds the root cache to its ownership rule:
// a plan it caches stays its own until it replaces or drops it, so no
// repair draws the plan's tree from bfs's free list while it is cached.
// After every event each cached plan is deep-copied. After the next
// event every cached plan must have a tree of its own (no other layer's)
// rooted at its root, and a plan still cached under the same tree at the
// same layer must equal its copy, unless the layer replaced it in that
// event with a tree drawn again from the free list: then it equals a
// fresh spanning tree of the event's network. 31 events of link and
// switch churn, with four workers and eight layers (so that some layers
// go untouched by an event), on two fabrics.
func TestCachedPlanNeverRecycled(t *testing.T) {
	type planCopy struct {
		tree   *bfs.Tree
		root   graph.NodeID
		parent []graph.ChannelID
		dist   []int32
		order  []graph.NodeID
		member []bool
	}
	deepCopy := func(net *graph.Network, tree *bfs.Tree) planCopy {
		c := planCopy{tree: tree, root: tree.Root,
			parent: slices.Clone(tree.Parent), dist: slices.Clone(tree.Dist), order: slices.Clone(tree.Order)}
		for ch := range net.NumChannels() {
			c.member = append(c.member, tree.IsTreeChannel(graph.ChannelID(ch)))
		}
		return c
	}
	equal := func(a, b planCopy) bool {
		return a.root == b.root && slices.Equal(a.parent, b.parent) && slices.Equal(a.dist, b.dist) &&
			slices.Equal(a.order, b.order) && slices.Equal(a.member, b.member)
	}
	for _, tp := range []*topology.Topology{topology.Dragonfly(4, 2, 2, 9), topology.Torus3D(4, 4, 4, 1, 1)} {
		t.Run(tp.Name, func(t *testing.T) {
			m, err := NewManager(tp, Options{MaxVCs: 8, Seed: 1, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			var cached map[uint8]planCopy
			kept := 0
			for i := 0; i <= 30; i++ {
				ev, ok := m.RandomEvent(rng, 0.1)
				if i%5 == 4 {
					ev, ok = m.RandomSwitchEvent(rng, 0.5)
				}
				if !ok {
					t.Fatalf("event %d: no churn event possible", i)
				}
				if _, err := m.Apply(ev); err != nil {
					t.Fatalf("event %d (%s): %v", i, ev, err)
				}
				net := m.View().Net
				owner := make(map[*bfs.Tree]uint8)
				for l, p := range m.run.roots {
					if other, ok := owner[p.Tree]; ok {
						t.Fatalf("event %d (%s): layers %d and %d cache one tree", i, ev, other, l)
					}
					owner[p.Tree] = l
					if p.Tree.Root != p.Root {
						t.Fatalf("event %d (%s): layer %d caches root %d with a tree rooted at %d", i, ev, l, p.Root, p.Tree.Root)
					}
					was, ok := cached[l]
					if !ok || was.tree != p.Tree {
						continue
					}
					now := deepCopy(net, p.Tree)
					if equal(now, was) {
						kept++
						continue
					}
					fresh := bfs.SpanningTree(net, p.Root)
					redrawn := equal(now, deepCopy(net, fresh))
					fresh.Release()
					if !redrawn {
						t.Fatalf("event %d (%s): layer %d's cached plan (root %d) changed while cached", i, ev, l, was.root)
					}
				}
				cached = make(map[uint8]planCopy)
				for l, p := range m.run.roots {
					cached[l] = deepCopy(net, p.Tree)
				}
			}
			if kept < 5 {
				t.Fatalf("only %d cached plans outlived an event unchanged: the check proves little", kept)
			}
		})
	}
}
