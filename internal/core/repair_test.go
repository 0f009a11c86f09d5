package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/verify"
	"repro/internal/topology"
)

// TestRepairLayerAfterLinkFailure routes a torus, fails one link, repairs
// only the destinations whose forwarding trees used it, and verifies the
// merged routing end to end.
func TestRepairLayerAfterLinkFailure(t *testing.T) {
	tp := topology.Torus3D(3, 3, 3, 1, 1)
	dests := tp.Net.Terminals()
	eng := New(DefaultOptions())
	res, err := eng.Route(tp.Net, dests, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Check(tp.Net, res, nil); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Fail one switch-switch link that keeps the network connected.
	faulty, n := topology.InjectLinkFailures(tp, rand.New(rand.NewSource(7)), 0.01)
	if n != 1 {
		t.Fatalf("failed %d links, want 1", n)
	}
	net := faulty.Net
	var failedCh []graph.ChannelID
	for c := 0; c < net.NumChannels(); c++ {
		if net.Channel(graph.ChannelID(c)).Failed {
			failedCh = append(failedCh, graph.ChannelID(c))
		}
	}

	// Partition destinations per layer into broken vs kept.
	table := res.Table.Clone(net)
	byLayer := map[uint8][]graph.NodeID{}
	kept := map[uint8][]graph.NodeID{}
	broken := 0
	for i, d := range table.Dests() {
		uses := false
		for _, c := range failedCh {
			if table.Next(net.Channel(c).From, d) == c {
				uses = true
				break
			}
		}
		l := res.DestLayer[i]
		if uses {
			byLayer[l] = append(byLayer[l], d)
			broken++
		} else {
			kept[l] = append(kept[l], d)
		}
	}
	if broken == 0 {
		t.Fatal("failed link broke no destination; test needs a different seed")
	}
	if broken == len(dests) {
		t.Fatal("every destination broken; repair would equal a full recompute")
	}

	routed := 0
	for l, rep := range byLayer {
		st, err := eng.RepairLayer(RepairRequest{
			Net:    net,
			Table:  table,
			Repair: rep,
			Kept:   kept[l],
		})
		if err != nil {
			t.Fatalf("RepairLayer(layer %d): %v", l, err)
		}
		routed += st.Routed
	}
	if routed != broken {
		t.Fatalf("repaired %d destinations, want %d", routed, broken)
	}

	repaired := &routing.Result{
		Algorithm: "nue-repair",
		Table:     table,
		VCs:       res.VCs,
		DestLayer: res.DestLayer,
	}
	if _, err := verify.Check(net, repaired, nil); err != nil {
		t.Fatalf("repaired routing invalid: %v", err)
	}
	// Kept columns must be untouched.
	delta := routing.Diff(res.Table, table)
	if delta.Same == 0 {
		t.Fatal("repair rewrote every entry")
	}
	for l, ks := range kept {
		for _, d := range ks {
			for _, s := range net.Switches() {
				if res.Table.Next(s, d) != table.Next(s, d) {
					t.Fatalf("kept dest %d (layer %d) changed at switch %d", d, l, s)
				}
			}
		}
	}
}
