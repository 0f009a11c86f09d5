package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// RandomTopology builds a connected random network of the kind used in the
// paper's §5.1: switches interconnected by ssLinks randomly placed
// switch-to-switch duplex links (a random spanning tree guarantees
// connectivity; the remainder is sampled uniformly without self-loops or
// duplicate pairs), with t terminals per switch.
//
// The paper's configuration is RandomTopology(rng, 125, 1000, 8).
func RandomTopology(rng *rand.Rand, switches, ssLinks, t int) *Topology {
	if ssLinks < switches-1 {
		panic("topology: not enough links for a connected network")
	}
	maxPairs := switches * (switches - 1) / 2
	if ssLinks > maxPairs {
		panic("topology: more links than switch pairs")
	}
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, switches)
	for i := range sw {
		sw[i] = b.AddSwitch(fmt.Sprintf("r%d", i))
	}
	used := make(map[[2]int]bool, ssLinks)
	addPair := func(i, j int) bool {
		if i == j {
			return false
		}
		if i > j {
			i, j = j, i
		}
		if used[[2]int{i, j}] {
			return false
		}
		used[[2]int{i, j}] = true
		b.AddLink(sw[i], sw[j])
		return true
	}
	// Random spanning tree via random attachment order.
	perm := rng.Perm(switches)
	for idx := 1; idx < switches; idx++ {
		addPair(perm[idx], perm[rng.Intn(idx)])
	}
	placed := switches - 1
	for placed < ssLinks {
		if addPair(rng.Intn(switches), rng.Intn(switches)) {
			placed++
		}
	}
	addTerminals(b, sw, t)
	return &Topology{Net: b.MustBuild(), Name: fmt.Sprintf("random-%d-%d", switches, ssLinks)}
}

// InjectLinkFailures marks approximately fraction of the switch-to-switch
// duplex links as failed, never disconnecting the network (candidate
// failures that would disconnect it are skipped). It returns the modified
// copy and the number of duplex links actually failed. Terminal links are
// never failed.
func InjectLinkFailures(tp *Topology, rng *rand.Rand, fraction float64) (*Topology, int) {
	g := tp.Net
	var candidates []graph.ChannelID
	for i := 0; i < g.NumChannels(); i += 2 {
		c := g.Channel(graph.ChannelID(i))
		if !c.Failed && g.IsSwitch(c.From) && g.IsSwitch(c.To) {
			candidates = append(candidates, c.ID)
		}
	}
	want := int(float64(len(candidates))*fraction + 0.5)
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	// Each candidate is probed on one clone: fail both halves, and revert
	// exactly the halves that flipped if the network fell apart.
	failed := 0
	cur := g.Clone()
	for _, c := range candidates {
		if failed >= want {
			break
		}
		rev := cur.Channel(c).Reverse
		revFlipped := cur.SetHalfFailed(rev, true)
		cur.SetHalfFailed(c, true)
		if bfs.Connected(cur) {
			failed++
			continue
		}
		cur.SetHalfFailed(c, false)
		if revFlipped {
			cur.SetHalfFailed(rev, false)
		}
	}
	ntp := *tp
	if failed > 0 {
		ntp.Net = cur
		ntp.Name = fmt.Sprintf("%s-f%d", tp.Name, failed)
	}
	return &ntp, failed
}

// FailSwitch returns a copy of the topology with the given switch (and its
// attached terminals) disconnected. The paper's Fig. 1 network is a 4x4x3
// torus with one failed switch.
func FailSwitch(tp *Topology, s graph.NodeID) *Topology {
	if !tp.Net.IsSwitch(s) {
		panic("topology: FailSwitch on non-switch")
	}
	ntp := *tp
	ntp.Net = tp.Net.WithoutNodes(s)
	ntp.Name = tp.Name + "-1sw"
	return &ntp
}
