package graph

import "slices"

// CSR is a Network's adjacency, stored once and flat (compressed sparse
// rows): every adjacency and channel attribute lives in one int-indexed
// array, so the routing hot paths (core's modified Dijkstra, centrality's
// Brandes pass, the complete-CDG builder) touch contiguous memory instead
// of chasing per-node slice headers and copying 16-byte Channel structs.
//
// Node n owns the index range start[n]..start[n+1] of both OutCh and
// InCh, sized by its total degree with failed channels included (every
// channel's reverse ends where it starts, so a node has as many incoming
// channels as outgoing ones). The live channels fill a prefix of the
// range, up to outEnd[n] and inEnd[n]: out in ascending (head node,
// channel ID) order, in in ascending (tail node, channel ID) order.
// Failed channels are parked behind the live end, in an order nothing
// reads. A failure or a restore moves one channel across the live end of
// its two nodes' ranges, so the adjacency is never rebuilt.
type CSR struct {
	OutCh []ChannelID
	InCh  []ChannelID

	// Per-channel attributes, indexed by ChannelID (failed channels
	// included so IDs stay dense).
	From   []NodeID
	To     []NodeID
	Rev    []ChannelID
	Failed []bool

	start         []int32
	outEnd, inEnd []int32
}

// Out returns the non-failed outgoing channels of n, by head node then
// ID. The slice is capped at its length, so an append by the caller
// copies it instead of writing into the range.
func (c *CSR) Out(n NodeID) []ChannelID {
	s, e := c.start[n], c.outEnd[n]
	return c.OutCh[s:e:e]
}

// In returns the non-failed incoming channels of n, by tail node then
// ID, capped like Out.
func (c *CSR) In(n NodeID) []ChannelID {
	s, e := c.start[n], c.inEnd[n]
	return c.InCh[s:e:e]
}

// NumNodes returns the number of nodes of the underlying network.
func (c *CSR) NumNodes() int { return len(c.outEnd) }

// NumChannels returns the number of channels (including failed ones).
func (c *CSR) NumChannels() int { return len(c.To) }

// CSRView returns g's adjacency. It is g's own storage: it reflects
// every later mutation of g, so it must only be read while g is (the
// usual contract: mutate only private Clones, never published snapshots).
func (g *Network) CSRView() *CSR { return &g.adj }

// layout returns the adjacency of nn nodes joined by the live channels
// from[i]→to[i], where channel i's reverse is i^1. Two stable counting
// passes, by the far end and then by the near end, put every range in
// adjacency order without a comparison sort.
func layout(nn int, from, to []NodeID) CSR {
	nc := len(from)
	c := CSR{From: from, To: to, Rev: make([]ChannelID, nc), Failed: make([]bool, nc), start: make([]int32, nn+1)}
	ids := make([]ChannelID, nc)
	for i := range ids {
		ids[i] = ChannelID(i)
		c.Rev[i] = ChannelID(i ^ 1)
		c.start[from[i]+1]++
	}
	for n := 0; n < nn; n++ {
		c.start[n+1] += c.start[n]
	}
	c.OutCh = countingSort(countingSort(ids, to, nn), from, nn)
	c.InCh = countingSort(countingSort(ids, from, nn), to, nn)
	c.outEnd = slices.Clone(c.start[1:])
	c.inEnd = slices.Clone(c.start[1:])
	return c
}

// countingSort returns ids stably ordered by key[id], a node below nn.
func countingSort(ids []ChannelID, key []NodeID, nn int) []ChannelID {
	next := make([]int32, nn+1)
	for _, id := range ids {
		next[key[id]+1]++
	}
	for n := 0; n < nn; n++ {
		next[n+1] += next[n]
	}
	sorted := make([]ChannelID, len(ids))
	for _, id := range ids {
		sorted[next[key[id]]] = id
		next[key[id]]++
	}
	return sorted
}

// setHalf moves the directed channel id into the given state, across the
// live end of its tail's out range and its head's in range; a channel
// already in that state is left alone. It costs O(degree) and allocates
// nothing.
func (c *CSR) setHalf(id ChannelID, failed bool) {
	if c.Failed[id] == failed {
		return
	}
	c.Failed[id] = failed
	from, to := c.From[id], c.To[id]
	if failed {
		c.outEnd[from] = park(c.OutCh, c.start[from], c.outEnd[from], id)
		c.inEnd[to] = park(c.InCh, c.start[to], c.inEnd[to], id)
	} else {
		c.outEnd[from] = unpark(c.OutCh, c.start[from], c.outEnd[from], id, c.To)
		c.inEnd[to] = unpark(c.InCh, c.start[to], c.inEnd[to], id, c.From)
	}
}

// park moves id from the live prefix s[lo:end] to just behind it,
// keeping the order of the rest, and returns the new live end.
func park(s []ChannelID, lo, end int32, id ChannelID) int32 {
	i := lo
	for s[i] != id {
		i++
	}
	copy(s[i:end-1], s[i+1:end])
	s[end-1] = id
	return end - 1
}

// unpark moves the parked id into the live prefix s[lo:end], at its
// place by (far[id], id), and returns the new live end.
func unpark(s []ChannelID, lo, end int32, id ChannelID, far []NodeID) int32 {
	i := end
	for s[i] != id {
		i++
	}
	s[i] = s[end]
	j := end
	for ; j > lo && (far[id] < far[s[j-1]] || far[id] == far[s[j-1]] && id < s[j-1]); j-- {
		s[j] = s[j-1]
	}
	s[j] = id
	return end + 1
}
