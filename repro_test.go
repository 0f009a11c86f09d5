package repro

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	tp := Torus3D(3, 3, 2, 2, 1)
	res, err := RouteNue(tp.Net, tp.Net.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(tp.Net, res)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.DeadlockFree {
		t.Fatal("not deadlock free")
	}
	if got := RequiredVCs(res); got > 2 {
		t.Errorf("RequiredVCs = %d, want <= 2", got)
	}
	sr, err := SimulateAllToAll(tp.Net, res, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Deadlocked || sr.FlitsPerCycle <= 0 {
		t.Errorf("simulation unhealthy: %+v", sr)
	}
	g := EdgeForwardingIndex(tp.Net, res)
	if g.Max <= 0 {
		t.Error("gamma not computed")
	}
}

func TestFacadeRouteByName(t *testing.T) {
	tp := Torus3D(3, 3, 2, 2, 1)
	for _, algo := range []string{"nue", "updn", "dfsssp", "lash", "torus2qos"} {
		res, err := Route(algo, tp, tp.Net.Terminals(), 8)
		if err != nil {
			t.Errorf("Route(%s): %v", algo, err)
			continue
		}
		if _, err := Verify(tp.Net, res); err != nil {
			t.Errorf("Verify(%s): %v", algo, err)
		}
	}
}

func TestFacadeTopologySerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tp := RandomTopology(rng, 12, 24, 2)
	var buf bytes.Buffer
	if err := WriteTopology(&buf, tp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Net.NumNodes() != tp.Net.NumNodes() {
		t.Error("round trip lost nodes")
	}
}

func TestFacadeFaultInjection(t *testing.T) {
	tp := Torus3D(4, 4, 3, 2, 1)
	faulty := FailSwitch(tp, tp.Torus.SwitchAt[0][0][0])
	rng := rand.New(rand.NewSource(3))
	faulty, n := InjectLinkFailures(faulty, rng, 0.02)
	if n == 0 {
		t.Fatal("no failures injected")
	}
	res, err := RouteNue(faulty.Net, workingTerms(faulty), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(faulty.Net, res); err != nil {
		t.Fatal(err)
	}
}

func workingTerms(tp *Topology) []NodeID {
	var out []NodeID
	for _, tm := range tp.Net.Terminals() {
		if tp.Net.Degree(tm) > 0 {
			out = append(out, tm)
		}
	}
	return out
}

func TestFacadeCustomNetwork(t *testing.T) {
	b := NewBuilder()
	s1 := b.AddSwitch("left")
	s2 := b.AddSwitch("right")
	b.AddLink(s1, s2)
	t1 := b.AddTerminal("a")
	b.AddLink(t1, s1)
	t2 := b.AddTerminal("b")
	b.AddLink(t2, s2)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RouteNue(net, net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := res.Table.Path(t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Errorf("path length = %d, want 3", len(p))
	}
}

func TestFacadeGenerators(t *testing.T) {
	cases := []struct {
		tp        *Topology
		switches  int
		terminals int
	}{
		{topology.Ring(6, 2), 6, 12},
		{topology.RingWithShortcut(), 5, 0},
		{Mesh2D(3, 3, 1), 9, 9},
		{topology.Mesh3D(2, 2, 2, 1, 1), 8, 8},
		{topology.Kautz(2, 2, 1, 1), 6, 6},
		{Dragonfly(3, 1, 1, 4), 12, 12},
		{topology.KAryNTree(2, 2, 2), 4, 4},
	}
	for _, c := range cases {
		if c.tp.Net.NumSwitches() != c.switches || c.tp.Net.NumTerminals() != c.terminals {
			t.Errorf("%s: %d/%d switches/terminals, want %d/%d",
				c.tp.Name, c.tp.Net.NumSwitches(), c.tp.Net.NumTerminals(), c.switches, c.terminals)
		}
	}
	if tp := topology.Cascade2Group(); tp.Net.NumSwitches() != 192 {
		t.Errorf("cascade switches = %d", tp.Net.NumSwitches())
	}
	if tp := topology.TsubameLike(); tp.Net.NumSwitches() != 243 {
		t.Errorf("tsubame switches = %d", tp.Net.NumSwitches())
	}
}

func TestFacadeNueOptionsAndTraffic(t *testing.T) {
	tp := Mesh2D(3, 3, 1)
	opts := DefaultNueOptions()
	opts.Seed = 5
	res, err := NewNue(opts).Route(tp.Net, tp.Net.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(tp.Net, res); err != nil {
		t.Fatal(err)
	}
	msgs := AllToAllShift(tp.Net.Terminals(), 3)
	if len(msgs) != 9*3 {
		t.Errorf("AllToAllShift = %d messages, want 27", len(msgs))
	}
}
