package fabric

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// churnTopologies returns the three churn test fabrics of the acceptance
// criteria: torus, dragonfly and random.
func churnTopologies(t *testing.T) []*topology.Topology {
	t.Helper()
	return []*topology.Topology{
		topology.Torus3D(4, 4, 4, 1, 1),
		topology.Dragonfly(4, 2, 2, 9),
		topology.RandomTopology(rand.New(rand.NewSource(42)), 30, 90, 2),
	}
}

// TestChurn20Events drives 20 random connectivity-preserving churn events
// against each topology: after every event the repaired routing must
// verify (connected + deadlock-free) and the incremental repair must have
// recomputed paths for strictly fewer destinations than a full recompute
// would.
func TestChurn20Events(t *testing.T) {
	for _, tp := range churnTopologies(t) {
		tp := tp
		t.Run(tp.Name, func(t *testing.T) {
			t.Parallel()
			m, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			var reports, repaired, destRoutes int
			for i := 0; i < 20; i++ {
				ev, ok := m.RandomEvent(rng, 0.3)
				if !ok {
					t.Fatalf("event %d: no churn event possible", i)
				}
				rep, err := m.Apply(ev)
				if err != nil {
					t.Fatalf("event %d (%s): %v", i, ev, err)
				}
				reports++
				if !rep.NoOp {
					repaired += rep.RepairedDests
					destRoutes += rep.TotalDests
				}
				if !rep.Verified {
					t.Fatalf("event %d (%s): transition not verified", i, ev)
				}
				if rep.FullRecompute {
					t.Fatalf("event %d (%s): fell back to full recompute", i, ev)
				}
				if rep.RepairedDests >= rep.TotalDests {
					t.Fatalf("event %d (%s): repaired %d of %d destinations — not fewer than a full recompute",
						i, ev, rep.RepairedDests, rep.TotalDests)
				}
				// Re-verify from the outside against the published snapshot.
				snap := m.View()
				if snap.Epoch != rep.Epoch {
					t.Fatalf("event %d: snapshot epoch %d != report epoch %d", i, snap.Epoch, rep.Epoch)
				}
				if _, err := verify.Check(snap.Net, snap.Result, nil); err != nil {
					t.Fatalf("event %d (%s): published snapshot invalid: %v", i, ev, err)
				}
			}
			if reports != 20 {
				t.Fatalf("%d reports, want 20", reports)
			}
			if repaired >= destRoutes {
				t.Fatalf("aggregate: incremental repair did %d of %d full-recompute path computations",
					repaired, destRoutes)
			}
		})
	}
}

// TestIncrementalMatchesFullValidity replays the identical event sequence
// into an incremental and a full-recompute manager: both must verify at
// every step, and the incremental one must do strictly less work.
func TestIncrementalMatchesFullValidity(t *testing.T) {
	tp := topology.Torus3D(4, 4, 2, 1, 1)
	inc, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1, Verify: true, FullRecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		ev, ok := inc.RandomEvent(rng, 0.25)
		if !ok {
			t.Fatal("no event possible")
		}
		ri, err := inc.Apply(ev)
		if err != nil {
			t.Fatalf("incremental: %v", err)
		}
		rf, err := full.Apply(ev)
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		if !rf.FullRecompute || rf.RepairedDests != rf.TotalDests {
			t.Fatalf("full manager did not recompute everything: %+v", rf)
		}
		if ri.RepairedDests >= rf.RepairedDests {
			t.Fatalf("event %d: incremental repaired %d, full %d", i, ri.RepairedDests, rf.RepairedDests)
		}
	}
}

// TestSwitchFailAndJoin takes a whole switch down and back up.
func TestSwitchFailAndJoin(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	m, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	s := tp.Torus.SwitchAt[1][1][0]
	rep, err := m.Apply(Event{Kind: SwitchFail, Node: s})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnreachableDests == 0 {
		t.Fatal("switch failure disconnected no terminal")
	}
	snap := m.View()
	for _, term := range snap.Net.Terminals() {
		if snap.Net.Degree(term) == 0 && !columnEmpty(snap, term) {
			t.Fatalf("disconnected terminal %d keeps a stale column", term)
		}
	}
	rep, err = m.Apply(Event{Kind: SwitchJoin, Node: s})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NoOp {
		t.Fatal("switch join was a no-op")
	}
	// Every terminal pair must route again.
	snap = m.View()
	terms := snap.Net.Terminals()
	for _, a := range terms {
		for _, b := range terms {
			if a == b {
				continue
			}
			if _, err := routing.Walk(snap.Net, snap.Result, a, b, nil); err != nil {
				t.Fatalf("path %d -> %d after rejoin: %v", a, b, err)
			}
		}
	}
	if _, err := verify.Check(snap.Net, snap.Result, nil); err != nil {
		t.Fatalf("after rejoin: %v", err)
	}
}

// columnEmpty reports whether no switch of the snapshot holds an entry
// toward d.
func columnEmpty(snap *Snapshot, d graph.NodeID) bool {
	for _, sw := range snap.Net.Switches() {
		if snap.Result.Table.Next(sw, d) != graph.NoChannel {
			return false
		}
	}
	return true
}

// TestAffectedDestsMatchesColumnScan holds the row read of affectedDests
// against the definition it implements, column by column: over a link +
// switch churn sweep, the affected set of every event equals the
// destinations whose column forwards over a newly failed channel, plus
// the cut-off destinations that still have a column, plus — when a
// channel came back — the connected destinations some live switch has no
// entry for.
func TestAffectedDestsMatchesColumnScan(t *testing.T) {
	for _, tp := range churnTopologies(t)[:2] {
		tp := tp
		t.Run(tp.Name, func(t *testing.T) {
			t.Parallel()
			m, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			shadow := NewState(tp.Net) // yields each event's changed channels
			rng := rand.New(rand.NewSource(11))
			nonEmpty := 0
			for i := 0; i < 40; i++ {
				var ev Event
				var ok bool
				if i%4 == 3 {
					ev, ok = m.RandomSwitchEvent(rng, 0.4)
				} else {
					ev, ok = m.RandomEvent(rng, 0.4)
				}
				if !ok {
					t.Fatalf("event %d: no churn event possible", i)
				}
				changed := shadow.Mutate(ev)
				newNet := shadow.working.Clone()
				snap := m.View()
				table := snap.Result.Table.Clone(newNet)

				want := make(map[graph.NodeID]struct{})
				restored := false
				for _, c := range changed {
					if !newNet.Channel(c).Failed {
						restored = true
						continue
					}
					for _, d := range table.Dests() {
						for _, sw := range newNet.Switches() {
							if table.Next(sw, d) == c {
								want[d] = struct{}{}
							}
						}
					}
				}
				for _, d := range table.Dests() {
					if newNet.Degree(d) == 0 {
						if !columnEmpty(snap, d) {
							want[d] = struct{}{}
						}
						continue
					}
					for _, sw := range newNet.Switches() {
						if restored && sw != d && newNet.Degree(sw) > 0 && table.Next(sw, d) == graph.NoChannel {
							want[d] = struct{}{}
						}
					}
				}
				got := affectedSet(newNet, table, changed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("event %d (%s): affected %d destinations, column scan says %d", i, ev, len(got), len(want))
				}
				if len(want) > 0 {
					nonEmpty++
				}
				if _, err := m.Apply(ev); err != nil {
					t.Fatalf("event %d (%s): %v", i, ev, err)
				}
			}
			if nonEmpty < 20 {
				t.Fatalf("only %d of 40 events affected a destination: the sweep proves little", nonEmpty)
			}
		})
	}
}

// affectedSet is affectedDests as a set of destinations.
func affectedSet(newNet *graph.Network, table *routing.Table, changed []graph.ChannelID) map[graph.NodeID]struct{} {
	set := make(map[graph.NodeID]struct{})
	for i, a := range affectedDests(nil, newNet, table, changed) {
		if a {
			set[table.Dests()[i]] = struct{}{}
		}
	}
	return set
}

// TestLinkFailJoinRestoresStability fails one link and joins it again;
// the rejoin must only touch destinations with missing routes (none, as
// repair healed them) so the table stays identical.
func TestNoOpEvents(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 1, 1)
	m, err := NewManager(tp, Options{MaxVCs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	alive := m.View().Net.Out(tp.Net.Switches()[0])[0]
	rep, err := m.Apply(Event{Kind: LinkJoin, Link: alive})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NoOp || m.Epoch() != 0 {
		t.Fatalf("joining an alive link must be a no-op (report %+v, epoch %d)", rep, m.Epoch())
	}
	rep, err = m.Apply(Event{Kind: SwitchJoin, Node: tp.Net.Switches()[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NoOp {
		t.Fatal("joining an alive switch must be a no-op")
	}
}

// TestNoRouteEpochSharesTable: on the 8x8x8 torus a link restore that
// moves no route publishes a table that shares its predecessor's
// entries (the rows are the same memory) and allocates less than 64 KB,
// where a copy of the 512x512 table alone is 1 MB. A later failure
// repairs a clone, so neither earlier snapshot's table moves.
func TestNoRouteEpochSharesTable(t *testing.T) {
	tp := topology.Torus3D(8, 8, 8, 1, 1)
	m, err := NewManager(tp, Options{MaxVCs: 4, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	sws := tp.Net.Switches()
	// switchLink returns sw's first link to another switch; the routing
	// uses every such link of the healthy torus.
	switchLink := func(sw graph.NodeID) graph.ChannelID {
		for _, c := range tp.Net.Out(sw) {
			if tp.Net.IsSwitch(tp.Net.Channel(c).To) {
				return c
			}
		}
		t.Fatalf("switch %d has no switch link", sw)
		return graph.NoChannel
	}
	apply := func(ev Event) (*Snapshot, *EventReport) {
		t.Helper()
		rep, err := m.Apply(ev)
		if err != nil {
			t.Fatalf("%s: %v", ev, err)
		}
		return m.View(), rep
	}
	// A flap of another link warms the certifier's and the engine's
	// scratch.
	warm := switchLink(sws[len(sws)/2])
	apply(Event{Kind: LinkFail, Link: warm})
	apply(Event{Kind: LinkJoin, Link: warm})
	link := switchLink(sws[0])
	failed, rep := apply(Event{Kind: LinkFail, Link: link})
	if rep.RepairedDests == 0 {
		t.Fatalf("failing ch%d moved no route", link)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	restored, rep := apply(Event{Kind: LinkJoin, Link: link})
	runtime.ReadMemStats(&after)
	if rep.RepairedDests != 0 || rep.Delta.Changed+rep.Delta.Added+rep.Delta.Removed != 0 {
		t.Fatalf("the restore moved routes (%d repaired, delta %+v): it must move none", rep.RepairedDests, rep.Delta)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("a restore that moves no route allocated %d bytes", bytes)
	if bytes >= 64<<10 {
		t.Errorf("a restore that moves no route allocated %d bytes, want less than 64 KB", bytes)
	}
	old, cur := failed.Result.Table, restored.Result.Table
	for _, sw := range sws {
		if &cur.Row(sw)[0] != &old.Row(sw)[0] {
			t.Fatalf("switch %d's row was copied: an epoch that moves no route must share its predecessor's entries", sw)
		}
	}

	digests := []uint64{old.Digest(), cur.Digest()}
	later, rep := apply(Event{Kind: LinkFail, Link: switchLink(sws[len(sws)-1])})
	if rep.RepairedDests == 0 || later.Result.Table.Digest() == digests[1] {
		t.Fatal("the later failure moved no route: it must repair a clone")
	}
	for i, tb := range []*routing.Table{old, cur} {
		if d := tb.Digest(); d != digests[i] {
			t.Errorf("snapshot %d's table digest moved from %#x to %#x after a later repair", i, digests[i], d)
		}
	}
}

// TestSeededDependenciesReported: incremental repairs must actually seed
// surviving dependencies (the UPR union), not route in a vacuum.
func TestSeededDependenciesReported(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 1, 1)
	m, err := NewManager(tp, Options{MaxVCs: 2, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		ev, ok := m.RandomEvent(rng, 0)
		if !ok {
			t.Fatal("no event")
		}
		rep, err := m.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RepairedDests > 0 && rep.Seeded.Deps == 0 {
			t.Fatalf("event %d repaired %d dests without seeding any surviving dependency", i, rep.RepairedDests)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	net := tp.Net
	sw := net.Switches()
	events := []Event{
		{Kind: LinkFail, Link: net.FindChannel(sw[0], sw[1])},
		{Kind: SwitchFail, Node: sw[4]},
		{Kind: LinkJoin, Link: net.FindChannel(sw[0], sw[1])},
		{Kind: SwitchJoin, Node: sw[4]},
	}
	var b strings.Builder
	if err := WriteTrace(&b, net, events); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(strings.NewReader("# comment\n\n"+b.String()), net)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-trip returned %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i].Kind != events[i].Kind {
			t.Fatalf("event %d kind %v != %v", i, got[i].Kind, events[i].Kind)
		}
		switch got[i].Kind {
		case LinkFail, LinkJoin:
			if canonical(net, got[i].Link) != canonical(net, events[i].Link) {
				t.Fatalf("event %d link mismatch", i)
			}
		default:
			if got[i].Node != events[i].Node {
				t.Fatalf("event %d node mismatch", i)
			}
		}
	}
	if _, err := ParseTrace(strings.NewReader("explode 1 2\n"), net); err == nil {
		t.Fatal("bad trace accepted")
	}
	if _, err := ParseTrace(strings.NewReader("fail-link 0 0\n"), net); err == nil {
		t.Fatal("nonexistent link accepted")
	}
	// 2^32 would wrap to node 0 (and so to the link 0->3); node 9 is a
	// terminal, and a switch event names a switch.
	for _, line := range []string{"fail-link 4294967296 3", "fail-link 3 -1", "fail-switch 9", "join-switch 9", "fail-switch 4294967296"} {
		if got, err := ParseTrace(strings.NewReader(line+"\n"), net); err == nil {
			t.Errorf("%q accepted as %+v", line, got)
		}
	}
}

// TestEpochMonotonic: epochs advance by exactly one per effective event.
func TestEpochMonotonic(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 1, 1)
	m, err := NewManager(tp, Options{MaxVCs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var want uint64
	for i := 0; i < 8; i++ {
		ev, ok := m.RandomEvent(rng, 0.5)
		if !ok {
			t.Fatal("no event")
		}
		rep, err := m.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.NoOp {
			want++
		}
		if m.Epoch() != want {
			t.Fatalf("epoch %d, want %d", m.Epoch(), want)
		}
	}
}

var _ = graph.NoChannel // keep the import for helpers above

// TestRootCacheGoldens pins the tables the runner's escape-plan cache
// leads to: 30 random events per case, each layer repair handed its
// layer's cached plan as Hint whenever churn stayed outside its tree. At
// pJoin 0 no restore clears the cache, so most repairs reuse a root; the
// bench churn workloads alternate failures and restores and reuse none.
// Each case pins the final table digest and the roots reused in total.
func TestRootCacheGoldens(t *testing.T) {
	cases := []struct {
		tp     *topology.Topology
		pJoin  float64
		digest uint64
		reused int
	}{
		{topology.Torus3D(4, 4, 4, 1, 1), 0, 0xaeabcc90aa74feda, 74},
		{topology.Torus3D(4, 4, 4, 1, 1), 0.5, 0x7234351c3ccf3970, 14},
		{topology.Dragonfly(4, 2, 2, 9), 0, 0x3f8be9c3f3a19280, 65},
		{topology.Dragonfly(4, 2, 2, 9), 0.5, 0x249076d1061cfe97, 15},
	}
	for _, c := range cases {
		m, err := NewManager(c.tp, Options{MaxVCs: 4, Seed: 1, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		reused := 0
		for i := 0; i < 30; i++ {
			ev, ok := m.RandomEvent(rng, c.pJoin)
			if !ok {
				t.Fatalf("%s pJoin %v: event %d: no churn event possible", c.tp.Name, c.pJoin, i)
			}
			rep, err := m.Apply(ev)
			if err != nil {
				t.Fatalf("%s pJoin %v: event %d (%s): %v", c.tp.Name, c.pJoin, i, ev, err)
			}
			reused += rep.RootsReused
		}
		if d := m.View().Result.Table.Digest(); d != c.digest || reused != c.reused {
			t.Errorf("%s pJoin %v: digest %#x, %d roots reused; want %#x, %d",
				c.tp.Name, c.pJoin, d, reused, c.digest, c.reused)
		}
	}
}
