package mcast

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

func nueRoute(t testing.TB, tp *topology.Topology, vcs int) *routing.Result {
	t.Helper()
	res, err := core.New(core.DefaultOptions()).Route(tp.Net, tp.Net.Terminals(), vcs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// walkTree follows a group's out-channels from the source and returns
// the set of terminals reached.
func walkTree(t *testing.T, net *graph.Network, g *routing.CastGroup) map[graph.NodeID]bool {
	t.Helper()
	reached := make(map[graph.NodeID]bool)
	if g.Source == graph.NoNode || net.Degree(g.Source) == 0 {
		return reached
	}
	root := net.TerminalSwitch(g.Source)
	queue := []graph.NodeID{root}
	seen := map[graph.NodeID]bool{root: true}
	for head := 0; head < len(queue); head++ {
		for _, c := range g.Outs(queue[head]) {
			to := net.Channel(c).To
			if net.Channel(c).From != queue[head] {
				t.Fatalf("group %d: out %d does not leave switch %d", g.ID, c, queue[head])
			}
			if net.IsTerminal(to) {
				reached[to] = true
				continue
			}
			if seen[to] {
				t.Fatalf("group %d: cast graph revisits switch %d", g.ID, to)
			}
			seen[to] = true
			queue = append(queue, to)
		}
	}
	return reached
}

// TestBuildTreesServeEveryMember: on a healthy torus every non-source
// member must be triaged exactly once (receiver, UBM or unrouted — and
// unrouted never happens here), tree receivers must actually be reached
// by the tree, and the whole table must pass independent oracle
// certification over the unicast+cast union.
func TestBuildTreesServeEveryMember(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	net := tp.Net
	terms := net.Terminals()
	res := nueRoute(t, tp, 2)
	groups := SeededGroups(7, net, 4, 5)
	groups = append(groups, Group{ID: len(groups) + 1, Members: terms}) // broadcast

	reg := telemetry.New()
	cast, st, err := Build(net, res, groups, Options{Telemetry: reg.Mcast()})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		cg := cast.Group(g.ID)
		if cg == nil {
			t.Fatalf("group %d missing from table", g.ID)
		}
		triaged := 1 + len(cg.Receivers) + len(cg.UBM) + len(cg.Unrouted) // +1 source
		if triaged != len(cg.Members) {
			t.Errorf("group %d: %d members triaged, want %d", g.ID, triaged, len(cg.Members))
		}
		if len(cg.Unrouted) != 0 {
			t.Errorf("group %d: %v unrouted on a healthy torus", g.ID, cg.Unrouted)
		}
		reached := walkTree(t, net, cg)
		for _, m := range cg.Receivers {
			if !reached[m] {
				t.Errorf("group %d: receiver %d not reached by the tree", g.ID, m)
			}
		}
		if len(reached) != len(cg.Receivers) {
			t.Errorf("group %d: tree reaches %d terminals, serves %d receivers",
				g.ID, len(reached), len(cg.Receivers))
		}
	}
	if st.Groups != len(groups) || st.TreesBuilt != len(groups) {
		t.Errorf("stats %+v: want %d groups, all built", *st, len(groups))
	}

	res.Cast = cast
	cert, err := oracle.Certify(net, res, oracle.Options{})
	if err != nil {
		t.Fatalf("oracle refused mcast-built trees: %v", err)
	}
	if !cert.DeadlockFree || cert.CastGroups != len(groups) {
		t.Errorf("certificate %+v: want deadlock-free with %d cast groups", *cert, len(groups))
	}
	if cert.CastEdges == 0 {
		t.Error("certificate counted no cast edges")
	}

	s := reg.Snapshot()
	if s.Counters["mcast_builds_total"] != 1 {
		t.Errorf("mcast_builds_total = %d, want 1", s.Counters["mcast_builds_total"])
	}
	if got := s.Counters["mcast_tree_edges_total"]; got != int64(st.TreeEdges) {
		t.Errorf("mcast_tree_edges_total = %d, want %d", got, st.TreeEdges)
	}
}

// TestBuildDeterministic: identical inputs must produce identical
// tables, byte for byte — the fabric's delta push and the stress
// harness's replay depend on it.
func TestBuildDeterministic(t *testing.T) {
	tp := topology.Ring(8, 2)
	net := tp.Net
	res := nueRoute(t, tp, 2)
	groups := SeededGroups(42, net, 6, 4)
	a, _, err := Build(net, res, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Build(net, res, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.IDs() {
		ga, gb := a.Group(id), b.Group(id)
		if !reflect.DeepEqual(ga, gb) {
			t.Errorf("group %d differs across identical builds:\n%+v\n%+v", id, ga, gb)
		}
	}
}

// TestBuildValidation: non-terminal members, duplicate ids and 0-based
// ids are rejected up front.
func TestBuildValidation(t *testing.T) {
	tp := topology.Ring(4, 1)
	net := tp.Net
	res := nueRoute(t, tp, 1)
	terms := net.Terminals()
	sw := net.Switches()[0]
	cases := []struct {
		name   string
		groups []Group
	}{
		{"switch member", []Group{{ID: 1, Members: []graph.NodeID{terms[0], sw}}}},
		{"duplicate id", []Group{{ID: 1, Members: terms[:2]}, {ID: 1, Members: terms[1:3]}}},
		{"zero id", []Group{{ID: 0, Members: terms[:2]}}},
	}
	for _, tc := range cases {
		if _, _, err := Build(net, res, tc.groups, Options{}); err == nil {
			t.Errorf("%s: Build accepted invalid input", tc.name)
		}
	}
}

// TestBuildGeneralModeUBM: a routing with explicit pair paths (source
// routing) has no per-layer dependency structure the builder can grow
// trees in; every member must fall back to a UBM leg and the result must
// still certify.
func TestBuildGeneralModeUBM(t *testing.T) {
	tp := topology.Ring(5, 1)
	net := tp.Net
	res := nueRoute(t, tp, 1)
	res.PairPath = map[uint64][]graph.ChannelID{} // marks the routing source-routed
	groups := []Group{{ID: 1, Members: net.Terminals()}}
	cast, st, err := Build(net, res, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := cast.Group(1)
	if len(g.Receivers) != 0 || g.TreeEdges() != 0 {
		t.Errorf("general mode grew a tree: %d receivers, %d edges", len(g.Receivers), g.TreeEdges())
	}
	if len(g.UBM) != len(g.Members)-1 {
		t.Errorf("UBM members = %d, want %d", len(g.UBM), len(g.Members)-1)
	}
	if st.VDeps != 0 || st.TDeps != 0 {
		t.Errorf("general mode committed dependencies: %+v", *st)
	}
	res.Cast = cast
	if _, err := oracle.Certify(net, res, oracle.Options{}); err != nil {
		t.Fatalf("oracle refused UBM-only table: %v", err)
	}
}

// TestRebuildKeepsHealthyTrees: after a channel failure, Rebuild must
// keep the trees that do not touch the failed link verbatim and rebuild
// (or re-triage) the ones that do.
func TestRebuildKeepsHealthyTrees(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	net := tp.Net
	res := nueRoute(t, tp, 2)
	groups := SeededGroups(11, net, 5, 4)
	old, _, err := Build(net, res, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Fail a channel some tree uses.
	var victim graph.ChannelID = graph.NoChannel
	var victimGroup int
	for _, id := range old.IDs() {
		for _, c := range old.Group(id).Channels() {
			if net.IsSwitch(net.Channel(c).From) && net.IsSwitch(net.Channel(c).To) {
				victim, victimGroup = c, id
				break
			}
		}
		if victim != graph.NoChannel {
			break
		}
	}
	if victim == graph.NoChannel {
		t.Skip("no tree uses a switch-switch channel")
	}
	net.SetChannelFailed(victim, true)
	defer net.SetChannelFailed(victim, false)
	res2 := nueRoute(t, tp, 2)

	affected := map[int]bool{}
	for _, id := range old.IDs() {
		for _, c := range old.Group(id).Channels() {
			if net.Channel(c).Failed {
				affected[id] = true
			}
		}
	}
	if !affected[victimGroup] {
		t.Fatalf("victim group %d not marked affected", victimGroup)
	}

	cast, st, err := Rebuild(net, res2, old, groups, affected, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept == 0 {
		t.Log("no old tree could be re-admitted against the repaired routing (legal, but weakens the test)")
	}
	for _, id := range cast.IDs() {
		for _, c := range cast.Group(id).Channels() {
			if net.Channel(c).Failed {
				t.Errorf("group %d still uses failed channel %d", id, c)
			}
		}
	}
	if st.Kept+st.TreesBuilt != len(groups) {
		t.Errorf("kept %d + built %d != %d groups", st.Kept, st.TreesBuilt, len(groups))
	}
	res2.Cast = cast
	if _, err := oracle.Certify(net, res2, oracle.Options{}); err != nil {
		t.Fatalf("oracle refused rebuilt table: %v", err)
	}
}

// TestSeededGroups pins the workload generator: deterministic for a
// seed, members are connected terminals, sizes clamped, ids 1-based.
func TestSeededGroups(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	net := tp.Net
	a := SeededGroups(3, net, 5, 4)
	b := SeededGroups(3, net, 5, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different groups")
	}
	c := SeededGroups(4, net, 5, 4)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical groups")
	}
	for i, g := range a {
		if g.ID != i+1 {
			t.Errorf("group %d has id %d", i, g.ID)
		}
		if len(g.Members) != 4 {
			t.Errorf("group %d has %d members, want 4", g.ID, len(g.Members))
		}
		for _, m := range g.Members {
			if !net.IsTerminal(m) {
				t.Errorf("group %d member %d is not a terminal", g.ID, m)
			}
		}
	}
	// Oversized k clamps to the terminal count.
	big := SeededGroups(3, net, 1, 10000)
	if len(big) != 1 || len(big[0].Members) != len(net.Terminals()) {
		t.Error("oversized group size did not clamp to the terminal count")
	}
}

// BenchmarkCastTreeBuild measures full-table construction (trees plus
// dependency admissions) for a broadcast-heavy workload on a 27-switch
// torus.
func BenchmarkCastTreeBuild(b *testing.B) {
	tp := topology.Torus3D(3, 3, 3, 1, 1)
	net := tp.Net
	res := nueRoute(b, tp, 2)
	groups := SeededGroups(1, net, 8, 9)
	groups = append(groups, Group{ID: 9, Members: net.Terminals()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(net, res, groups, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
