package topology

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/graph"
)

// Write serializes a topology in a simple line-oriented text format:
//
//	topo <name>
//	node <id> switch|terminal <name>
//	link <fromID> <toID>
//
// Failed channels are omitted, so a round-trip bakes failures in.
func Write(w io.Writer, tp *Topology) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "topo %s\n", tp.Name)
	g := tp.Net
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		fmt.Fprintf(bw, "node %d %s %s\n", n.ID, n.Kind, n.Name)
	}
	for i := 0; i < g.NumChannels(); i += 2 {
		c := g.Channel(graph.ChannelID(i))
		if c.Failed {
			continue
		}
		fmt.Fprintf(bw, "link %d %d\n", c.From, c.To)
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Torus/tree metadata is not
// serialized; topology-aware routings require generator-built topologies.
func Read(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	b := graph.NewBuilder()
	name := "unnamed"
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "topo":
			if len(fields) >= 2 {
				name = fields[1]
			}
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("topology: line %d: malformed node", lineNo)
			}
			var id int
			if _, err := fmt.Sscanf(fields[1], "%d", &id); err != nil {
				return nil, fmt.Errorf("topology: line %d: bad node id: %v", lineNo, err)
			}
			if id != b.NumNodes() {
				return nil, fmt.Errorf("topology: line %d: node ids must be dense and ordered (got %d, want %d)",
					lineNo, id, b.NumNodes())
			}
			nodeName := ""
			if len(fields) >= 4 {
				nodeName = fields[3]
			}
			switch fields[2] {
			case "switch":
				b.AddSwitch(nodeName)
			case "terminal":
				b.AddTerminal(nodeName)
			default:
				return nil, fmt.Errorf("topology: line %d: unknown node kind %q", lineNo, fields[2])
			}
		case "link":
			var from, to int
			if len(fields) < 3 {
				return nil, fmt.Errorf("topology: line %d: malformed link", lineNo)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &from); err != nil {
				return nil, fmt.Errorf("topology: line %d: bad link source: %v", lineNo, err)
			}
			if _, err := fmt.Sscanf(fields[2], "%d", &to); err != nil {
				return nil, fmt.Errorf("topology: line %d: bad link target: %v", lineNo, err)
			}
			if from < 0 || from >= b.NumNodes() || to < 0 || to >= b.NumNodes() {
				return nil, fmt.Errorf("topology: line %d: link endpoint out of range", lineNo)
			}
			if from == to {
				return nil, fmt.Errorf("topology: line %d: self-link", lineNo)
			}
			b.AddLink(graph.NodeID(from), graph.NodeID(to))
		default:
			return nil, fmt.Errorf("topology: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Topology{Net: g, Name: name}, nil
}
