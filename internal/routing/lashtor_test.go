package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/routing"
	"repro/internal/routing/lash"
	"repro/internal/routing/updn"
	"repro/internal/routing/verify"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestLASHTORAlwaysApplicable(t *testing.T) {
	// Plain LASH fails on a 5x5 torus with 1 VC; LASH-TOR must route it
	// by pushing overflow paths onto Up*/Down* in the (only) layer.
	tp := topology.Torus3D(5, 5, 1, 2, 1)
	if _, err := (lash.Engine{}).Route(tp.Net, tp.Net.Terminals(), 1); err == nil {
		t.Fatal("plain LASH unexpectedly fit 1 VC; fixture broken")
	}
	res, err := (lash.TOREngine{}).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatalf("LASH-TOR failed: %v", err)
	}
	if res.VCs != 1 {
		t.Errorf("VCs = %d, want 1", res.VCs)
	}
	if res.Stats["overflow_paths"] == 0 {
		t.Error("no overflow paths despite plain-LASH failure")
	}
	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.DeadlockFree {
		t.Fatal("not deadlock free")
	}
}

func TestLASHTORReducesToLASHWhenBudgetSuffices(t *testing.T) {
	tp := topology.KAryNTree(3, 2, 2)
	res, err := (lash.TOREngine{}).Route(tp.Net, tp.Net.Terminals(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairPath != nil {
		t.Error("LASH-TOR created overflow paths although LASH fits")
	}
	if _, err := verify.Check(tp.Net, res, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLASHTORPartialOverflow(t *testing.T) {
	// 2 VCs on a 5x5x2 torus: one normal LASH layer plus the Up*/Down*
	// overflow layer.
	tp := topology.Torus3D(5, 5, 2, 1, 1)
	res, err := (lash.TOREngine{}).Route(tp.Net, tp.Net.Terminals(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.VCs > 2 {
		t.Errorf("VCs = %d, budget 2", res.VCs)
	}
	if _, err := verify.Check(tp.Net, res, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLASHTORSimulates(t *testing.T) {
	// End-to-end: source-routed overflow paths must deliver traffic in
	// the flit simulator without wedging.
	tp := topology.Torus3D(5, 5, 1, 2, 1)
	res, err := (lash.TOREngine{}).Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	msgs := sim.AllToAllShift(tp.Net.Terminals(), 8)
	r, err := sim.Run(tp.Net, res, msgs, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatal("LASH-TOR deadlocked in simulation")
	}
	if r.DeliveredMessages != r.TotalMessages {
		t.Errorf("delivered %d/%d", r.DeliveredMessages, r.TotalMessages)
	}
}

func TestMultipleUpdnVerifies(t *testing.T) {
	tp := topology.Torus3D(4, 4, 2, 2, 1)
	res, err := (updn.MultiEngine{}).Route(tp.Net, tp.Net.Terminals(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.VCs < 2 {
		t.Errorf("mupdn used %d roots, want >= 2 on a torus", res.VCs)
	}
	rep, err := verify.Check(tp.Net, res, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !rep.DeadlockFree {
		t.Fatal("not deadlock free")
	}
}

func TestMultipleUpdnShortensPaths(t *testing.T) {
	// Extra roots must not lengthen the average path versus one root.
	rng := rand.New(rand.NewSource(31))
	tp := topology.RandomTopology(rng, 32, 96, 2)
	dests := tp.Net.Terminals()
	single, err := (updn.Engine{}).Route(tp.Net, dests, 1)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := (updn.MultiEngine{}).Route(tp.Net, dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Check(tp.Net, multi, nil); err != nil {
		t.Fatal(err)
	}
	avg := func(res *routing.Result) float64 {
		total, n := 0, 0
		for _, d := range dests {
			for _, s := range dests {
				if s == d {
					continue
				}
				p, err := routing.Walk(tp.Net, res, s, d, nil)
				if err != nil {
					t.Fatal(err)
				}
				total += len(p)
				n++
			}
		}
		return float64(total) / float64(n)
	}
	if am, as := avg(multi), avg(single); am > as+1e-9 {
		t.Errorf("mupdn avg path %.3f longer than single updn %.3f", am, as)
	}
}

func TestMultipleUpdnSimulates(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 2, 1)
	res, err := (updn.MultiEngine{}).Route(tp.Net, tp.Net.Terminals(), 3)
	if err != nil {
		t.Fatal(err)
	}
	msgs := sim.AllToAllShift(tp.Net.Terminals(), 0)
	r, err := sim.Run(tp.Net, res, msgs, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.DeliveredMessages != r.TotalMessages {
		t.Fatalf("mupdn simulation incomplete: %+v", r)
	}
}
