// Package metrics computes the routing-quality metrics of the paper's
// §5.1: the edge forwarding index γ of inter-switch ports (Heydemann et
// al.) and path-length statistics.
package metrics

import (
	"math"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Gamma summarizes the edge forwarding index of a routed network: the
// number of source->destination paths crossing each inter-switch channel.
type Gamma struct {
	Min, Max int
	Avg, SD  float64
	// PerChannel holds the raw index of every inter-switch channel
	// (indexed densely, order unspecified).
	PerChannel []int
}

// PathStats summarizes hop counts over all (source, destination) pairs.
type PathStats struct {
	Max int
	Avg float64
	// Hist[h] counts paths of length h.
	Hist []int
}

// EdgeForwardingIndex computes γ over the inter-switch channels for
// traffic from sources (nil = connected terminals) to the table's
// destinations.
func EdgeForwardingIndex(net *graph.Network, res *routing.Result, sources []graph.NodeID) Gamma {
	counts := channelLoads(net, res, sources)
	var g Gamma
	g.Min = math.MaxInt
	sum, sumSq, n := 0.0, 0.0, 0
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(graph.ChannelID(c))
		if ch.Failed || !net.IsSwitch(ch.From) || !net.IsSwitch(ch.To) {
			continue
		}
		v := counts[c]
		g.PerChannel = append(g.PerChannel, v)
		if v < g.Min {
			g.Min = v
		}
		if v > g.Max {
			g.Max = v
		}
		sum += float64(v)
		sumSq += float64(v) * float64(v)
		n++
	}
	if n == 0 {
		g.Min = 0
		return g
	}
	g.Avg = sum / float64(n)
	g.SD = math.Sqrt(sumSq/float64(n) - g.Avg*g.Avg)
	return g
}

// PathLengths computes hop statistics for the same traffic pairs.
func PathLengths(net *graph.Network, res *routing.Result, sources []graph.NodeID) PathStats {
	var st PathStats
	total, pairs := 0, 0
	forEachPath(net, res, sources, func(p []graph.ChannelID) {
		h := len(p)
		total += h
		pairs++
		if h > st.Max {
			st.Max = h
		}
		for len(st.Hist) <= h {
			st.Hist = append(st.Hist, 0)
		}
		st.Hist[h]++
	})
	if pairs > 0 {
		st.Avg = float64(total) / float64(pairs)
	}
	return st
}

// channelLoads counts, per channel, the number of (source, destination)
// paths crossing it.
func channelLoads(net *graph.Network, res *routing.Result, sources []graph.NodeID) []int {
	counts := make([]int, net.NumChannels())
	forEachPath(net, res, sources, func(p []graph.ChannelID) {
		for _, c := range p {
			counts[c]++
		}
	})
	return counts
}

// forEachPath hands fn the routing.Walk path of every (source,
// destination) pair that has one; pairs without a valid path (unreachable,
// or mis-routed — the verifier's business) are left out. The slice is
// reused between calls.
func forEachPath(net *graph.Network, res *routing.Result, sources []graph.NodeID, fn func(p []graph.ChannelID)) {
	if sources == nil {
		sources = connectedTerminals(net)
	}
	var buf []graph.ChannelID
	for _, d := range res.Table.Dests() {
		if net.Degree(d) == 0 {
			continue
		}
		for _, s := range sources {
			if s == d {
				continue
			}
			if p, err := routing.Walk(net, res, s, d, buf); err == nil {
				buf = p
				fn(p)
			}
		}
	}
}

func connectedTerminals(net *graph.Network) []graph.NodeID {
	var out []graph.NodeID
	for _, t := range net.Terminals() {
		if net.Degree(t) > 0 {
			out = append(out, t)
		}
	}
	return out
}
