package fabric

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// FuzzParseTrace feeds the churn-trace reader (nuefm -trace) arbitrary
// bytes. Whatever it is handed, it either refuses the trace or returns
// events that name existing links and switches of the network, and that
// WriteTrace renders into a trace that parses back to the same events
// (links compared as duplex links, by canonical half).
//
//	go test -run '^$' -fuzz FuzzParseTrace -fuzztime 30s ./internal/fabric/
func FuzzParseTrace(f *testing.F) {
	net := topology.Torus3D(3, 3, 1, 1, 1).Net
	sw := net.Switches()
	var good strings.Builder
	if err := WriteTrace(&good, net, []Event{
		{Kind: LinkFail, Link: net.FindChannel(sw[0], sw[1])},
		{Kind: SwitchFail, Node: sw[4]},
		{Kind: LinkJoin, Link: net.FindChannel(sw[0], sw[1])},
		{Kind: SwitchJoin, Node: sw[4]},
	}); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"# comment\n\n" + good.String(),
		"explode 1 2\n", "fail-link 0 0\n",
		// The wrap (2^32 names node 0) and terminal cases.
		"fail-link 4294967296 3\n", "fail-link 3 -1\n", "fail-switch 9\n", "join-switch 9\n", "fail-switch 4294967296\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseTrace(strings.NewReader(string(data)), net)
		if err != nil {
			return
		}
		for i, e := range events {
			switch e.Kind {
			case LinkFail, LinkJoin:
				if e.Link < 0 || int(e.Link) >= net.NumChannels() {
					t.Fatalf("event %d names channel %d of %d", i, e.Link, net.NumChannels())
				}
			case SwitchFail, SwitchJoin:
				if e.Node < 0 || int(e.Node) >= net.NumNodes() || !net.IsSwitch(e.Node) {
					t.Fatalf("event %d names node %d, not a switch", i, e.Node)
				}
			default:
				t.Fatalf("event %d has kind %v", i, e.Kind)
			}
		}
		var out strings.Builder
		if err := WriteTrace(&out, net, events); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(strings.NewReader(out.String()), net)
		if err != nil {
			t.Fatalf("written trace refused: %v\n%s", err, out.String())
		}
		if len(again) != len(events) {
			t.Fatalf("%d events parse back as %d", len(events), len(again))
		}
		for i, e := range events {
			if again[i].Kind != e.Kind || again[i].Node != e.Node || traceLink(net, again[i]) != traceLink(net, e) {
				t.Fatalf("event %d: %v parses back as %v", i, e, again[i])
			}
		}
	})
}

// traceLink is the canonical half of a link event's link, NoChannel for a
// switch event.
func traceLink(net *graph.Network, e Event) graph.ChannelID {
	if e.Kind != LinkFail && e.Kind != LinkJoin {
		return graph.NoChannel
	}
	return canonical(net, e.Link)
}
