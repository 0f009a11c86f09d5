// Package mcast routes multicast groups on top of a finished unicast
// routing: for every group it grows a source-rooted cast tree
// edge-by-edge inside the complete channel dependency graph of the
// group's virtual layer, so that the UNION of the layer's unicast
// dependencies and the cast-tree dependencies stays acyclic — the
// extension of Nue's "route inside the acyclic complete CDG" discipline
// to multicast traffic.
//
// Cast trees induce two dependency kinds the unicast CDG never sees
// both of (DESIGN.md §13):
//
//   - T-type: a packet buffered on the tree's in-channel of a switch
//     wants each of the switch's cast out-channels (head-to-tail edges,
//     one per branch — the unicast dependency shape, repeated).
//   - V-type: the replicating packet holds already-reserved branch
//     outputs while waiting for the next one. Outputs are reserved in
//     ascending ChannelID order, so the holder of output o_i waits on
//     o_{i+1}: a dependency between two channels leaving the SAME
//     switch, which no head-to-tail CDG edge can express.
//
// When attaching a member would close a cycle in the union graph, the
// builder retries around the blocked channel and finally falls back to
// unicast-based multicast (UBM) for that member: the member is served
// by a serialized unicast leg over the already-certified unicast
// routing, which can never add a new dependency.
package mcast

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Group is an unrouted multicast group: an identifier and its member
// terminals. IDs are 1-based (0 means "unicast" elsewhere).
type Group struct {
	ID      int
	Members []graph.NodeID
}

// SeededGroups draws n random groups of k distinct connected terminals
// each, deterministically from the seed. Groups get IDs 1..n. Networks
// with fewer than two connected terminals yield no groups; k is clamped
// to the terminal count.
func SeededGroups(seed int64, net *graph.Network, n, k int) []Group {
	var terms []graph.NodeID
	for _, t := range net.Terminals() {
		if net.Degree(t) > 0 {
			terms = append(terms, t)
		}
	}
	if n <= 0 || len(terms) < 2 {
		return nil
	}
	if k > len(terms) {
		k = len(terms)
	}
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(seed))
	groups := make([]Group, 0, n)
	perm := make([]graph.NodeID, len(terms))
	for id := 1; id <= n; id++ {
		copy(perm, terms)
		// Partial Fisher-Yates: the first k entries are the membership.
		for i := 0; i < k; i++ {
			j := i + rng.Intn(len(perm)-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		members := append([]graph.NodeID(nil), perm[:k]...)
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		groups = append(groups, Group{ID: id, Members: members})
	}
	return groups
}
