package graph

// CSR is a compressed-sparse-row view of a Network: every adjacency and
// channel attribute lives in one flat int-indexed array, so the routing
// hot paths (core's modified Dijkstra, centrality's Brandes pass, the
// complete-CDG builder) touch contiguous memory instead of chasing
// per-node slice headers and copying 16-byte Channel structs.
//
// The view is immutable and built once per topology state: Network
// caches it behind an atomic pointer and invalidates the cache on every
// adjacency mutation (SetChannelFailed, SetHalfFailed, rebuilds), so a
// CSR obtained from a published snapshot stays valid for that snapshot's
// lifetime. Iteration order is IDENTICAL to Network.Out/Network.In —
// OutCh/InCh are verbatim concatenations of the per-node lists — so a
// consumer reading the view and one reading the Network (the oracle, the
// baseline engines) see the same adjacency in the same order
// (TestCSRMatchesNetwork).
type CSR struct {
	// OutStart[n]..OutStart[n+1] bounds n's slice of OutCh; same for in.
	OutStart []int32
	OutCh    []ChannelID
	InStart  []int32
	InCh     []ChannelID

	// Per-channel attributes, indexed by ChannelID (failed channels
	// included so IDs stay dense).
	From   []NodeID
	To     []NodeID
	Rev    []ChannelID
	Failed []bool

	// Switch[n] reports whether node n is a switch.
	Switch []bool
}

// Out returns the non-failed outgoing channels of n, in the same order
// as Network.Out.
func (c *CSR) Out(n NodeID) []ChannelID { return c.OutCh[c.OutStart[n]:c.OutStart[n+1]] }

// In returns the non-failed incoming channels of n, in the same order as
// Network.In.
func (c *CSR) In(n NodeID) []ChannelID { return c.InCh[c.InStart[n]:c.InStart[n+1]] }

// NumNodes returns the number of nodes of the underlying network.
func (c *CSR) NumNodes() int { return len(c.OutStart) - 1 }

// NumChannels returns the number of channels (including failed ones).
func (c *CSR) NumChannels() int { return len(c.To) }

// CSRView returns the flat adjacency view of g, building and caching it
// on first use. Concurrent readers may race to build; they produce
// identical views, so whichever store wins is correct. Mutating methods
// invalidate the cache — the usual contract (mutate only private Clones,
// never published snapshots) makes the cache safe.
func (g *Network) CSRView() *CSR {
	if v := g.csr.Load(); v != nil {
		return v
	}
	v := g.buildCSR()
	g.csr.Store(v)
	return v
}

// invalidateCSR drops the cached view after an adjacency mutation.
func (g *Network) invalidateCSR() { g.csr.Store(nil) }

func (g *Network) buildCSR() *CSR {
	nn, nc := len(g.nodes), len(g.channels)
	v := &CSR{
		OutStart: make([]int32, nn+1),
		InStart:  make([]int32, nn+1),
		From:     make([]NodeID, nc),
		To:       make([]NodeID, nc),
		Rev:      make([]ChannelID, nc),
		Failed:   make([]bool, nc),
		Switch:   make([]bool, nn),
	}
	outTotal, inTotal := 0, 0
	for n := 0; n < nn; n++ {
		v.OutStart[n] = int32(outTotal)
		v.InStart[n] = int32(inTotal)
		outTotal += len(g.out[n])
		inTotal += len(g.in[n])
		v.Switch[n] = g.nodes[n].Kind == Switch
	}
	v.OutStart[nn] = int32(outTotal)
	v.InStart[nn] = int32(inTotal)
	v.OutCh = make([]ChannelID, 0, outTotal)
	v.InCh = make([]ChannelID, 0, inTotal)
	for n := 0; n < nn; n++ {
		v.OutCh = append(v.OutCh, g.out[n]...)
		v.InCh = append(v.InCh, g.in[n]...)
	}
	for i := range g.channels {
		ch := &g.channels[i]
		v.From[i] = ch.From
		v.To[i] = ch.To
		v.Rev[i] = ch.Reverse
		v.Failed[i] = ch.Failed
	}
	return v
}
