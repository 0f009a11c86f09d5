package fabric

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// EventKind enumerates the topology-churn events a fabric manager accepts.
type EventKind uint8

const (
	// LinkFail takes one duplex link down; LinkJoin brings it back.
	LinkFail EventKind = iota
	LinkJoin
	// SwitchFail takes a switch (and all its links, including terminal
	// attachments) down; SwitchJoin brings it back.
	SwitchFail
	SwitchJoin
)

func (k EventKind) String() string {
	switch k {
	case LinkFail:
		return "fail-link"
	case LinkJoin:
		return "join-link"
	case SwitchFail:
		return "fail-switch"
	case SwitchJoin:
		return "join-switch"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one reconfiguration request. Link events identify the duplex
// link by either directed half; switch events identify the node.
type Event struct {
	Kind EventKind
	Link graph.ChannelID
	Node graph.NodeID
}

func (e Event) String() string {
	switch e.Kind {
	case LinkFail, LinkJoin:
		return fmt.Sprintf("%s ch%d", e.Kind, e.Link)
	default:
		return fmt.Sprintf("%s n%d", e.Kind, e.Node)
	}
}

// WriteTrace serializes events in the nuefm replay format: one event per
// line, link events as "fail-link <from> <to>" (node IDs of the duplex
// link), switch events as "fail-switch <node>". Lines starting with '#'
// and blank lines are comments.
func WriteTrace(w io.Writer, net *graph.Network, events []Event) error {
	for _, e := range events {
		var err error
		switch e.Kind {
		case LinkFail, LinkJoin:
			ch := net.Channel(e.Link)
			_, err = fmt.Fprintf(w, "%s %d %d\n", e.Kind, ch.From, ch.To)
		default:
			_, err = fmt.Fprintf(w, "%s %d\n", e.Kind, e.Node)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ParseTrace reads the WriteTrace format, resolving links against net
// (ignoring the current failed state, so a trace can re-fail a link it
// earlier brought down). Every node ID must name a node of net, and a
// switch event's a switch.
func ParseTrace(r io.Reader, net *graph.Network) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		var kind EventKind
		switch fields[0] {
		case "fail-link":
			kind = LinkFail
		case "join-link":
			kind = LinkJoin
		case "fail-switch":
			kind = SwitchFail
		case "join-switch":
			kind = SwitchJoin
		default:
			return nil, fmt.Errorf("trace line %d: unknown event %q", line, fields[0])
		}
		switch kind {
		case LinkFail, LinkJoin:
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace line %d: want %q <from> <to>", line, fields[0])
			}
			a, ok1 := traceNode(net, fields[1])
			b, ok2 := traceNode(net, fields[2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("trace line %d: bad node IDs", line)
			}
			c := findLink(net, a, b)
			if c == graph.NoChannel {
				return nil, fmt.Errorf("trace line %d: no link %d-%d in topology", line, a, b)
			}
			events = append(events, Event{Kind: kind, Link: c})
		default:
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace line %d: want %q <node>", line, fields[0])
			}
			n, ok := traceNode(net, fields[1])
			if !ok || !net.IsSwitch(n) {
				return nil, fmt.Errorf("trace line %d: bad switch ID %q", line, fields[1])
			}
			events = append(events, Event{Kind: kind, Node: n})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// traceNode parses a trace's node ID, which must name one of net's
// nodes: a larger value would wrap to another node.
func traceNode(net *graph.Network, s string) (graph.NodeID, bool) {
	n, err := strconv.Atoi(s)
	return graph.NodeID(n), err == nil && n >= 0 && n < net.NumNodes()
}

// findLink locates a directed channel a -> b regardless of failed state.
func findLink(net *graph.Network, a, b graph.NodeID) graph.ChannelID {
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(graph.ChannelID(c))
		if ch.From == a && ch.To == b {
			return ch.ID
		}
	}
	return graph.NoChannel
}

// canonical returns the smaller directed half of c's duplex link, the key
// used for fail refcounting.
func canonical(net *graph.Network, c graph.ChannelID) graph.ChannelID {
	if r := net.Channel(c).Reverse; r < c {
		return r
	}
	return c
}
