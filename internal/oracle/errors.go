package oracle

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// Dep is one vertex of a witness cycle: a directed channel occupied on a
// specific virtual lane.
type Dep struct {
	Channel  graph.ChannelID
	From, To graph.NodeID
	VL       uint8
}

func (d Dep) String() string {
	return fmt.Sprintf("ch%d(%d->%d)@vl%d", d.Channel, d.From, d.To, d.VL)
}

// CycleError refutes deadlock freedom: the witness is a closed sequence
// of (channel, VL) vertices in which every adjacent pair — and the wrap
// from last to first — is a dependency induced by an actual routed path.
// A packet resident on each witness channel simultaneously can form a
// circular wait.
type CycleError struct {
	Witness []Dep
}

func (e *CycleError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle: used channel-dependency cycle of length %d: ", len(e.Witness))
	for i, d := range e.Witness {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(d.String())
	}
	b.WriteString(" -> (wraps)")
	return b.String()
}

// UnreachableError refutes connectivity: walking the tables from Src
// toward Dst stalled at node At with no next hop, although Src and Dst
// share a network component.
type UnreachableError struct {
	Src, Dst, At graph.NodeID
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("oracle: no route %d -> %d: walk stalls at node %d (same component, path owed)", e.Src, e.Dst, e.At)
}

// LoopError refutes loop freedom: the table walk from Src toward Dst
// revisited node Repeat.
type LoopError struct {
	Src, Dst, Repeat graph.NodeID
}

func (e *LoopError) Error() string {
	return fmt.Sprintf("oracle: forwarding loop on path %d -> %d: node %d revisited", e.Src, e.Dst, e.Repeat)
}

// PathError reports a malformed hop: a failed or discontinuous channel,
// or a broken explicit path.
type PathError struct {
	Src, Dst graph.NodeID
	Hop      int
	Reason   string
}

func (e *PathError) Error() string {
	return fmt.Sprintf("oracle: invalid path %d -> %d at hop %d: %s", e.Src, e.Dst, e.Hop, e.Reason)
}

// ShapeError reports a structurally invalid result (mis-sized or
// conflicting layer assignments, missing table).
type ShapeError struct {
	Reason string
}

func (e *ShapeError) Error() string {
	return "oracle: malformed result: " + e.Reason
}

// BudgetError reports a virtual-channel budget or layer-assignment
// violation: the routing occupies more lanes than declared or allowed.
type BudgetError struct {
	Used, Budget int
	Detail       string
}

func (e *BudgetError) Error() string {
	msg := fmt.Sprintf("oracle: virtual-channel budget violated: needs %d layers, budget is %d", e.Used, e.Budget)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// ValidateWitness checks a witness cycle for internal consistency
// against the network alone: consecutive channels must chain head to
// tail (the wrap included) and no channel may be failed. Tests use this
// to reject a checker that fabricates witnesses.
func ValidateWitness(net *graph.Network, w []Dep) error {
	if len(w) < 2 {
		return fmt.Errorf("oracle: witness cycle too short (%d vertices)", len(w))
	}
	for i, d := range w {
		ch := net.Channel(d.Channel)
		if ch.From != d.From || ch.To != d.To {
			return fmt.Errorf("oracle: witness vertex %d misdescribes channel %d", i, d.Channel)
		}
		if ch.Failed {
			return fmt.Errorf("oracle: witness vertex %d uses failed channel %d", i, d.Channel)
		}
		next := w[(i+1)%len(w)]
		nextFrom := net.Channel(next.Channel).From
		if ch.To != nextFrom {
			return fmt.Errorf("oracle: witness does not chain at vertex %d: channel %d ends at %d, next starts at %d",
				i, d.Channel, ch.To, nextFrom)
		}
	}
	return nil
}
