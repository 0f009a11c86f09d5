package routing_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/dfsssp"
	"repro/internal/routing/dor"
	"repro/internal/routing/ftree"
	"repro/internal/routing/lash"
	"repro/internal/routing/minhop"
	"repro/internal/routing/updn"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// verifyAll routes with the engine and checks connectivity + deadlock
// freedom, returning the result for further assertions.
func verifyAll(t *testing.T, e routing.Engine, tp *topology.Topology, maxVCs int) *routing.Result {
	t.Helper()
	dests := tp.Net.Terminals()
	if len(dests) == 0 {
		dests = tp.Net.Nodes()
	}
	res, err := e.Route(tp.Net, dests, maxVCs)
	if err != nil {
		t.Fatalf("%s on %s: %v", e.Name(), tp.Name, err)
	}
	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		t.Fatalf("%s on %s: verify: %v", e.Name(), tp.Name, err)
	}
	if !rep.DeadlockFree {
		t.Fatalf("%s on %s: not deadlock free", e.Name(), tp.Name)
	}
	return res
}

func TestUpdnRingAndTorus(t *testing.T) {
	verifyAll(t, updn.Engine{}, topology.Ring(8, 2), 1)
	verifyAll(t, updn.Engine{}, topology.Torus3D(3, 3, 3, 2, 1), 1)
}

func TestUpdnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tp := topology.RandomTopology(rng, 24, 60, 2)
	res := verifyAll(t, updn.Engine{}, tp, 1)
	if res.VCs != 1 {
		t.Errorf("updn VCs = %d, want 1", res.VCs)
	}
}

func TestUpdnFaultyTorus(t *testing.T) {
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[2][1][1])
	verifyAll(t, updn.Engine{}, faulty, 1)
}

func TestMinHopDeadlocksOnRing(t *testing.T) {
	// OpenSM's default MinHop is NOT deadlock-free on rings of >= 5
	// switches: every destination pulls minimal traffic from both sides,
	// so the union of dependencies closes both ring cycles regardless of
	// tie-breaking. Our verifier must prove it (this is the motivation
	// for the whole paper).
	tp := topology.Ring(5, 1)
	res, err := (minhop.MinHop{}).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Check(tp.Net, res, nil); err == nil {
		t.Error("minhop on a 5-ring should induce a cyclic CDG")
	}
}

func TestMinHopConnectivity(t *testing.T) {
	tp := topology.KAryNTree(3, 2, 2)
	verifyAll(t, minhop.MinHop{}, tp, 1) // trees are deadlock-free anyway
}

func TestSSSPBalancesLoad(t *testing.T) {
	// On a multigraph with two parallel links, the balanced trees DFSSSP
	// builds (minhop.Trees) must use both parallel channels across
	// destinations.
	b := graph.NewBuilder()
	s1 := b.AddSwitch("")
	s2 := b.AddSwitch("")
	b.AddLink(s1, s2)
	b.AddLink(s1, s2)
	var terms []graph.NodeID
	for i := 0; i < 4; i++ {
		tm := b.AddTerminal("")
		if i < 2 {
			b.AddLink(tm, s1)
		} else {
			b.AddLink(tm, s2)
		}
		terms = append(terms, tm)
	}
	g := b.MustBuild()
	res, err := (dfsssp.Engine{}).Route(g, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	used := map[graph.ChannelID]bool{}
	for _, d := range terms[2:] {
		used[res.Table.Next(s1, d)] = true
	}
	if len(used) != 2 {
		t.Errorf("SSSP used %d parallel channels from s1, want 2", len(used))
	}
}

func TestDFSSSPTorusNeedsMultipleVCs(t *testing.T) {
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	res := verifyAll(t, dfsssp.Engine{}, tp, 8)
	if res.VCs < 2 {
		t.Errorf("DFSSSP on a 4x4x3 torus used %d VCs; tori require > 1", res.VCs)
	}
	// With only 1 VC, DFSSSP must fail (this is Nue's selling point).
	if _, err := (dfsssp.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1); err == nil {
		t.Error("DFSSSP with 1 VC on a torus should fail")
	}
}

func TestDFSSSPRandomTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tp := topology.RandomTopology(rng, 25, 75, 3)
	res := verifyAll(t, dfsssp.Engine{}, tp, 8)
	if res.PairLayer == nil {
		t.Error("DFSSSP result missing PairLayer")
	}
}

func TestLASHTorus(t *testing.T) {
	// Rings of length 5 force minimal paths to cover every ring channel,
	// so one layer cannot stay acyclic (3x3x3 rings of 3 are too short to
	// force this).
	tp := topology.Torus3D(5, 5, 1, 2, 1)
	res := verifyAll(t, lash.Engine{}, tp, 8)
	if res.VCs < 2 {
		t.Errorf("LASH on a 5x5 torus used %d VCs, expected >= 2", res.VCs)
	}
}

func TestLASHRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tp := topology.RandomTopology(rng, 20, 50, 2)
	verifyAll(t, lash.Engine{}, tp, 8)
}

func TestLASHVCLimitFailure(t *testing.T) {
	tp := topology.Torus3D(5, 5, 1, 1, 1)
	if _, err := (lash.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1); err == nil {
		t.Error("LASH with 1 VC on a 5x5 torus should fail")
	}
}

func TestFtreeKAryNTree(t *testing.T) {
	tp := topology.KAryNTree(4, 3, 3)
	res := verifyAll(t, ftree.Engine{Level: tp.Tree.Level}, tp, 1)
	if res.VCs != 1 {
		t.Errorf("ftree VCs = %d, want 1", res.VCs)
	}
}

func TestFtreeTsubameLike(t *testing.T) {
	tp := topology.TsubameLike()
	verifyAll(t, ftree.Engine{Level: tp.Tree.Level}, tp, 1)
}

func TestFtreeRejectsNonTree(t *testing.T) {
	tp := topology.Torus3D(3, 3, 3, 1, 1)
	if _, err := (ftree.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1); err == nil {
		t.Error("ftree accepted a torus without level metadata")
	}
}

func TestTorus2QoSHealthyTorus(t *testing.T) {
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	res := verifyAll(t, dor.Engine{Meta: tp.Torus, Datelines: true}, tp, 2)
	if res.VCs != 2 {
		t.Errorf("torus2qos VCs = %d, want 2", res.VCs)
	}
	if res.SLToVL == nil {
		t.Error("torus2qos missing SL2VL mapping")
	}
}

func TestTorus2QoSOneFailedSwitch(t *testing.T) {
	// Fig. 1's scenario: Torus-2QoS survives a single switch failure.
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[1][2][0])
	verifyAll(t, dor.Engine{Meta: tp.Torus, Datelines: true}, faulty, 2)
}

func TestTorus2QoSDoubleRingFailureFails(t *testing.T) {
	// Two failures in the same ring defeat Torus-2QoS (paper §1/§5.3).
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	g := tp.Net
	a := tp.Torus.SwitchAt[0][0][0]
	b := tp.Torus.SwitchAt[1][0][0]
	c := tp.Torus.SwitchAt[2][0][0]
	d := tp.Torus.SwitchAt[3][0][0]
	broken := g.Clone()
	broken.SetChannelFailed(g.FindChannel(a, b), true)
	broken.SetChannelFailed(g.FindChannel(c, d), true)
	ntp := &topology.Topology{Net: broken, Name: "torus-2cut", Torus: tp.Torus}
	if _, err := (dor.Engine{Meta: ntp.Torus, Datelines: true}).Route(ntp.Net, ntp.Net.Terminals(), 2); err == nil {
		t.Error("torus2qos should fail with two failures in one ring")
	}
}

func TestPlainDORDeadlocksOnTorus(t *testing.T) {
	// DOR without datelines must be caught by the verifier on a torus
	// with wrap-around rings (needs rings > 4 so shortest paths use all
	// ring channels).
	tp := topology.Torus3D(5, 1, 1, 1, 1)
	res, err := (dor.Engine{Meta: tp.Torus}).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Check(tp.Net, res, nil); err == nil {
		t.Error("plain DOR on a 5-ring should induce a cyclic CDG")
	} else if !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("unexpected verify error: %v", err)
	}
}

func TestDORRejectsNonTorus(t *testing.T) {
	tp := topology.Ring(5, 1)
	if _, err := (dor.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1); err == nil {
		t.Error("dor accepted a topology without torus metadata")
	}
}

func TestVCRequirementsOrdering(t *testing.T) {
	// Qualitative Fig. 1b: on the faulty torus, Up*/Down* needs 1 VC,
	// Torus-2QoS 2, LASH and DFSSSP need several.
	tp := topology.Torus3D(4, 4, 3, 2, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[1][2][0])
	dests := faulty.Net.Terminals()
	udRes, err := (updn.Engine{}).Route(faulty.Net, dests, 8)
	if err != nil {
		t.Fatal(err)
	}
	dfRes, err := (dfsssp.Engine{}).Route(faulty.Net, dests, 8)
	if err != nil {
		t.Fatal(err)
	}
	if udRes.VCs != 1 {
		t.Errorf("updn VCs = %d, want 1", udRes.VCs)
	}
	if dfRes.VCs < 2 {
		t.Errorf("dfsssp VCs = %d, want >= 2 on a faulty torus", dfRes.VCs)
	}
}

func TestPlainDORDeadlockFreeOnMesh(t *testing.T) {
	// Without wrap-around rings, dimension-order routing is the classic
	// deadlock-free NoC routing with a single virtual channel.
	tp := topology.Mesh3D(4, 4, 1, 1, 1)
	res := verifyAll(t, dor.Engine{Meta: tp.Torus}, tp, 1)
	if res.VCs != 1 {
		t.Errorf("mesh DOR VCs = %d, want 1", res.VCs)
	}
}

func TestTorus2QoSRejectsMesh(t *testing.T) {
	tp := topology.Mesh2D(4, 4, 1)
	if _, err := (dor.Engine{Meta: tp.Torus, Datelines: true}).Route(tp.Net, tp.Net.Terminals(), 2); err == nil {
		t.Error("torus2qos accepted a mesh")
	}
}

func TestMeshDORWithFaultDetours(t *testing.T) {
	// A 3-D mesh with one dead switch forces detours: DOR routes around
	// it through a later dimension, and the result must verify
	// deadlock-free. (On a 2-D mesh the same fault leaves no later
	// dimension after y and DOR refuses; the mesh-4x4x1-1sw golden row
	// pins that refusal.)
	tp := topology.Mesh3D(4, 4, 3, 1, 1)
	faulty := topology.FailSwitch(tp, tp.Torus.SwitchAt[1][1][0])
	res, err := (dor.Engine{Meta: faulty.Torus}).Route(faulty.Net, workingTerminals(faulty.Net), 1)
	if err != nil {
		t.Fatalf("mesh DOR refused the fault: %v", err)
	}
	if res.Stats["detours"] <= 0 {
		t.Errorf("mesh DOR took %v detours around a dead switch, want some", res.Stats["detours"])
	}
	if _, err := verify.Check(faulty.Net, res, nil); err != nil {
		t.Errorf("detoured mesh DOR is unsafe: %v", err)
	}
}

func workingTerminals(g *graph.Network) []graph.NodeID {
	var out []graph.NodeID
	for _, tm := range g.Terminals() {
		if g.Degree(tm) > 0 {
			out = append(out, tm)
		}
	}
	return out
}
