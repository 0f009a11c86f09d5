package cdg

import (
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/topology"
)

// TestEscapePathsDegradedTorus marks escape paths for every terminal on a
// torus degraded by two failed links — the fail-in-place scenario — and
// checks that a complete escape path exists from every node to every
// destination, avoids the failed links, stays on the spanning tree, is
// fully marked in the CDG, and that the whole escape subgraph is acyclic.
func TestEscapePathsDegradedTorus(t *testing.T) {
	tp := topology.Torus3D(4, 4, 1, 1, 1)
	full := tp.Net
	a := full.FindChannel(tp.Torus.SwitchAt[0][0][0], tp.Torus.SwitchAt[1][0][0])
	b := full.FindChannel(tp.Torus.SwitchAt[1][1][0], tp.Torus.SwitchAt[1][2][0])
	if a == graph.NoChannel || b == graph.NoChannel {
		t.Fatal("expected torus links missing")
	}
	net := full.Clone()
	net.SetChannelFailed(a, true)
	net.SetChannelFailed(b, true)
	if !bfs.Connected(net) {
		t.Fatal("degraded torus must stay connected for this test")
	}

	dests := net.Terminals()
	root := net.TerminalSwitch(dests[0])
	tree := bfs.SpanningTree(net, root)
	d := NewComplete(net)
	ep := d.MarkEscapePaths(tree, dests)

	if !d.UsedAcyclic() {
		t.Fatal("escape paths on the degraded torus induced a cycle")
	}
	if ep.Channels == 0 || ep.Deps == 0 {
		t.Fatalf("no escape state marked: %+v", ep)
	}

	// Every (node, destination) pair must have a complete escape path.
	for _, dest := range dests {
		for n := 0; n < net.NumNodes(); n++ {
			at := graph.NodeID(n)
			if at == dest {
				continue
			}
			for hop := 0; at != dest; hop++ {
				if hop > net.NumNodes() {
					t.Fatalf("escape path %d -> %d does not terminate", n, dest)
				}
				p := tree.TreePath(at, dest)
				if len(p) == 0 {
					t.Fatalf("no escape hop at node %d toward %d", at, dest)
				}
				c := p[0]
				ch := net.Channel(c)
				if ch.Failed {
					t.Fatalf("escape path %d -> %d crosses failed channel %v", n, dest, c)
				}
				if !tree.IsTreeChannel(c) {
					t.Fatalf("escape hop %v of %d -> %d leaves the spanning tree", c, n, dest)
				}
				// Nue records escape state destination-outward, so the
				// traffic hop's mirror channel must be escape-marked.
				if d.ChannelState(ch.Reverse) == Unused {
					t.Fatalf("escape channel %v (recorded orientation) not marked", ch.Reverse)
				}
				at = ch.To
			}
		}
	}
}

// TestEscapePathsAvoidFailedTreeChannels: a tree computed on the degraded
// network never contains the failed channels, so marking escape paths on
// it must not touch them either.
func TestEscapePathsAvoidFailedTreeChannels(t *testing.T) {
	tp := topology.Torus3D(3, 3, 1, 1, 1)
	full := tp.Net
	a := full.FindChannel(tp.Torus.SwitchAt[0][0][0], tp.Torus.SwitchAt[0][1][0])
	b := full.FindChannel(tp.Torus.SwitchAt[2][0][0], tp.Torus.SwitchAt[2][1][0])
	net := full.Clone()
	net.SetChannelFailed(a, true)
	net.SetChannelFailed(b, true)
	tree := bfs.SpanningTree(net, net.Switches()[0])
	d := NewComplete(net)
	d.MarkEscapePaths(tree, net.Terminals())
	for _, c := range []graph.ChannelID{a, net.Channel(a).Reverse, b, net.Channel(b).Reverse} {
		if d.ChannelState(c) != Unused {
			t.Fatalf("failed channel %v was escape-marked", c)
		}
	}
}
