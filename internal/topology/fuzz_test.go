package topology

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzTopologyRead: any input either parses to a topology that survives a
// round trip through Write and Read (same name, nodes, channels and link
// endpoints), or is refused with an error; it never
// panics. Explore with
//
//	go test -run '^$' -fuzz FuzzTopologyRead -fuzztime 60s ./internal/topology/
func FuzzTopologyRead(f *testing.F) {
	f.Add([]byte("node 0 switch\nlink 0 0\n"))
	for _, tp := range []*Topology{Torus3D(3, 2, 1, 1, 1), Dragonfly(2, 1, 1, 3)} {
		var b bytes.Buffer
		if err := Write(&b, tp); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte("node 0 switch s\nnode 1 terminal a\nlink 1 0\nmcastgroup 1 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var text bytes.Buffer
		if err := Write(&text, tp); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&text)
		if err != nil {
			t.Fatalf("Write of a parsed topology does not parse: %v\n%s", err, text.Bytes())
		}
		a, b := tp.Net, back.Net
		if back.Name != tp.Name || a.NumNodes() != b.NumNodes() || a.NumChannels() != b.NumChannels() {
			t.Fatalf("round trip: %q with %d nodes and %d channels became %q with %d and %d",
				tp.Name, a.NumNodes(), a.NumChannels(), back.Name, b.NumNodes(), b.NumChannels())
		}
		for n := 0; n < a.NumNodes(); n++ {
			if a.Node(graph.NodeID(n)) != b.Node(graph.NodeID(n)) {
				t.Fatalf("node %d: %+v became %+v", n, a.Node(graph.NodeID(n)), b.Node(graph.NodeID(n)))
			}
		}
		for c := 0; c < a.NumChannels(); c++ {
			ca, cb := a.Channel(graph.ChannelID(c)), b.Channel(graph.ChannelID(c))
			if ca.From != cb.From || ca.To != cb.To {
				t.Fatalf("channel %d: %d->%d became %d->%d", c, ca.From, ca.To, cb.From, cb.To)
			}
		}
	})
}
