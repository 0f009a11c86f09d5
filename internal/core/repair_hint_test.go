package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// repairHintFixture routes a torus, fails one link and returns
// everything needed to repair the largest broken layer repeatedly: the
// degraded network, the baseline table, the repair/kept split of one
// layer, and the escape root a first repair elected (the value the
// fabric runner caches and passes back as RootHint).
type repairHintFixture struct {
	net    *graph.Network
	table  *routing.Table
	repair []graph.NodeID
	kept   []graph.NodeID
	root   graph.NodeID
}

func newRepairHintFixture(t testing.TB) *repairHintFixture {
	tp := topology.Torus3D(4, 4, 3, 1, 1)
	dests := tp.Net.Terminals()
	eng := New(DefaultOptions())
	res, err := eng.Route(tp.Net, dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	faulty, n := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(3)), 0.01)
	if n == 0 {
		t.Fatal("no link failed; fixture needs a different seed")
	}
	net := faulty.Net
	var failedCh []graph.ChannelID
	for c := 0; c < net.NumChannels(); c++ {
		if net.Channel(graph.ChannelID(c)).Failed {
			failedCh = append(failedCh, graph.ChannelID(c))
		}
	}
	table := res.Table.Clone(net)
	f := &repairHintFixture{net: net, table: table}
	var layer uint8
	found := false
	for i, d := range table.Dests() {
		uses := false
		for _, c := range failedCh {
			if table.DestUsesChannel(d, c) {
				uses = true
				break
			}
		}
		if uses && !found {
			layer, found = res.DestLayer[i], true
		}
	}
	if !found {
		t.Fatal("failed links broke no destination; fixture needs a different seed")
	}
	for i, d := range table.Dests() {
		if res.DestLayer[i] != layer {
			continue
		}
		uses := false
		for _, c := range failedCh {
			if table.DestUsesChannel(d, c) {
				uses = true
				break
			}
		}
		if uses {
			f.repair = append(f.repair, d)
		} else {
			f.kept = append(f.kept, d)
		}
	}
	// One repair without a hint elects the root the runner would cache.
	st, err := eng.RepairLayer(RepairRequest{
		Net: net, Table: table.Clone(net), Repair: f.repair, Kept: f.kept,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.RootReused {
		t.Fatal("hint-less repair claims a reused root")
	}
	f.root = st.Root
	return f
}

func (f *repairHintFixture) request(hint bool, table *routing.Table) RepairRequest {
	req := RepairRequest{Net: f.net, Table: table, Repair: f.repair, Kept: f.kept}
	if hint {
		req.RootHint, req.HasRootHint = f.root, true
	}
	return req
}

// TestRepairRootHintAllocs pins the escape-root cache: a repair handed a
// still-valid RootHint must skip the Brandes betweenness pass, reusing
// the root at the cost of a single validation BFS — observable as a
// strictly lower allocation count than the identical hint-less repair.
// This is the fix for recomputing escape-root betweenness from scratch
// on every churn event.
func TestRepairRootHintAllocs(t *testing.T) {
	f := newRepairHintFixture(t)
	eng := New(DefaultOptions())

	const runs = 10
	// Pre-clone the tables so the measured function allocates only what
	// the repair itself allocates (AllocsPerRun calls f runs+1 times).
	mkTables := func() func() *routing.Table {
		tables := make([]*routing.Table, runs+2)
		for i := range tables {
			tables[i] = f.table.Clone(f.net)
		}
		i := 0
		return func() *routing.Table { i++; return tables[i-1] }
	}

	next := mkTables()
	reused := true
	allocsFull := testing.AllocsPerRun(runs, func() {
		st, err := eng.RepairLayer(f.request(false, next()))
		if err != nil {
			t.Fatal(err)
		}
		reused = reused && st.RootReused
	})
	if reused {
		t.Fatal("hint-less repairs reported RootReused")
	}

	next = mkTables()
	reused = true
	allocsHint := testing.AllocsPerRun(runs, func() {
		st, err := eng.RepairLayer(f.request(true, next()))
		if err != nil {
			t.Fatal(err)
		}
		reused = reused && st.RootReused
	})
	if !reused {
		t.Fatal("hinted repair did not reuse the root")
	}

	if allocsHint >= allocsFull {
		t.Fatalf("hinted repair allocates %.0f allocs/run, hint-less %.0f — the cache saves nothing",
			allocsHint, allocsFull)
	}
	// The betweenness pass allocates per-source scratch for every switch;
	// replacing it with one BFS must cut a visible share of the repair's
	// allocations, not vanish into noise.
	if allocsHint > allocsFull*0.9 {
		t.Errorf("hinted repair allocates %.0f allocs/run vs %.0f hint-less (saved %.1f%%, want >= 10%%)",
			allocsHint, allocsFull, 100*(1-allocsHint/allocsFull))
	}
	t.Logf("repair allocations: %.0f with cached root, %.0f with betweenness pass (saved %.1f%%)",
		allocsHint, allocsFull, 100*(1-allocsHint/allocsFull))
}

// BenchmarkRepairRootHint measures one layer repair with the cached
// escape root accepted (hint=on: one validation BFS) against the same
// repair electing its root from scratch (hint=off: Brandes betweenness
// over every switch) — the per-churn-event saving of the runner's
// escape-root cache.
func BenchmarkRepairRootHint(b *testing.B) {
	f := newRepairHintFixture(b)
	for _, hint := range []bool{true, false} {
		name := "hint=off"
		if hint {
			name = "hint=on"
		}
		b.Run(name, func(b *testing.B) {
			eng := New(DefaultOptions())
			tables := make([]*routing.Table, b.N)
			for i := range tables {
				tables[i] = f.table.Clone(f.net)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := eng.RepairLayer(f.request(hint, tables[i]))
				if err != nil {
					b.Fatal(err)
				}
				if st.RootReused != hint {
					b.Fatalf("RootReused = %v with hint=%v", st.RootReused, hint)
				}
			}
		})
	}
}
