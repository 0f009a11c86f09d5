package shard

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/graph"
)

// ErrDeposed reports that an append lost its quorum: the proposing term
// is no longer current on a majority of replicas (a newer leader exists
// or the proposer sits in a minority partition). The proposed epoch is
// NOT committed and must not be published.
var ErrDeposed = errors.New("shard: term deposed, epoch not committed")

// ErrNoQuorum reports that an election could not reach a majority.
var ErrNoQuorum = errors.New("shard: no election quorum reachable")

// Entry is one committed epoch in the replicated log. Beyond the
// published snapshot it carries the bookkeeping a successor leader needs
// to rebuild a fabric.State exactly (the explicit link-failed and
// switch-down maps are not derivable from the network alone: a link that
// failed on its own under a down switch must stay down when the switch
// rejoins).
type Entry struct {
	// Epoch is the log index (Epoch == position in the log).
	Epoch uint64
	// Term is the leadership term that certified and committed the epoch.
	Term uint64
	// Digest fingerprints the epoch's forwarding table
	// (routing.Table.Digest); replicas cross-check it on append.
	Digest uint64
	// Snap is the certified immutable snapshot of the epoch.
	Snap *fabric.Snapshot
	// LinkFailed / NodeDown replicate the controller bookkeeping.
	LinkFailed map[graph.ChannelID]bool
	NodeDown   map[graph.NodeID]bool
	// Event is the churn event that produced the epoch (zero for the
	// initial routing).
	Event fabric.Event
}

// replica is one controller replica's durable state: the classic Raft
// triple (currentTerm, votedFor, log). Liveness and reachability are
// fault-injection state owned by the cluster.
type replica struct {
	id          int
	alive       bool
	group       int // partition group; replicas in different groups cannot talk
	currentTerm uint64
	votedFor    int // candidate voted for in currentTerm, -1 = none
	log         []Entry
}

// upToDate reports whether a candidate log described by (lastTerm,
// lastLen) is at least as up-to-date as r's log — Raft's election
// restriction, which keeps committed entries on every electable leader.
func (r *replica) upToDate(lastTerm uint64, lastLen int) bool {
	myLen := len(r.log)
	var myLast uint64
	if myLen > 0 {
		myLast = r.log[myLen-1].Term
	}
	if lastTerm != myLast {
		return lastTerm > myLast
	}
	return lastLen >= myLen
}

// Cluster is the replica set of one control plane. It is an in-process
// model of the replication protocol: elections and appends execute
// synchronously under a lock, while kill/partition injection flips
// per-replica reachability, so tests can drive real split-brain
// interleavings deterministically (and under -race, concurrently).
type Cluster struct {
	mu       sync.Mutex
	replicas []*replica
}

// NewCluster creates n live, connected replicas with empty logs.
func NewCluster(n int) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{replicas: make([]*replica, n)}
	for i := range c.replicas {
		c.replicas[i] = &replica{id: i, alive: true, votedFor: -1}
	}
	return c
}

// Size returns the number of replicas (dead ones included — quorum is
// always a majority of the full membership).
func (c *Cluster) Size() int { return len(c.replicas) }

func (c *Cluster) quorum() int { return len(c.replicas)/2 + 1 }

// Kill marks a replica dead: it votes for no one, acks nothing and
// serves nothing until Revive.
func (c *Cluster) Kill(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replicas[id].alive = false
}

// Revive brings a dead replica back with its log intact (crash-recovery
// semantics: currentTerm/votedFor/log survive, volatile state does not).
func (c *Cluster) Revive(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replicas[id].alive = true
}

// Alive reports replica liveness.
func (c *Cluster) Alive(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[id].alive
}

// Partition splits the replicas into isolated groups; replicas absent
// from every group form one implicit residual group. Heal() reconnects.
func (c *Cluster) Partition(groups ...[]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		r.group = 0
	}
	for gi, g := range groups {
		for _, id := range g {
			c.replicas[id].group = gi + 1
		}
	}
}

// Heal removes all partitions.
func (c *Cluster) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		r.group = 0
	}
}

// reachable reports whether a and b can exchange messages. Callers hold mu.
func (c *Cluster) reachable(a, b int) bool {
	ra, rb := c.replicas[a], c.replicas[b]
	return ra.alive && rb.alive && ra.group == rb.group
}

// TryElect runs one election round with the given replica as candidate:
// it increments the candidate's term, votes for itself and requests votes
// from every reachable replica, which grant iff the term is new to them
// and the candidate's log is at least as up-to-date as theirs (the Raft
// election restriction). Returns the won term, or ErrNoQuorum — the
// candidate's term stays bumped either way, as in Raft.
//
// A winner's log is truncated to the globally committed prefix. Real Raft
// instead replicates the winner's uncommitted leftovers; this control
// plane deliberately discards them — a failover restores from the last
// committed epoch and recomputes, so an uncommitted tail must not shift
// the new leader's next log index. Dropping it is safe: every published
// epoch was quorum-acked under its own proposing term, which (with the
// prefix-consistent Append below) every electable candidate still holds.
func (c *Cluster) TryElect(candidate int) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cand := c.replicas[candidate]
	if !cand.alive {
		return 0, fmt.Errorf("%w: candidate %d is dead", ErrNoQuorum, candidate)
	}
	cand.currentTerm++
	cand.votedFor = candidate
	term := cand.currentTerm
	var lastTerm uint64
	if n := len(cand.log); n > 0 {
		lastTerm = cand.log[n-1].Term
	}
	votes := 1
	for _, r := range c.replicas {
		if r.id == candidate || !c.reachable(candidate, r.id) {
			continue
		}
		if term > r.currentTerm {
			r.currentTerm = term
			r.votedFor = -1
		}
		if term == r.currentTerm && (r.votedFor == -1 || r.votedFor == candidate) && r.upToDate(lastTerm, len(cand.log)) {
			r.votedFor = candidate
			votes++
		}
	}
	if votes < c.quorum() {
		return 0, fmt.Errorf("%w: term %d got %d/%d votes", ErrNoQuorum, term, votes, c.quorum())
	}
	if n := c.committedLen(); len(cand.log) > n {
		cand.log = cand.log[:n]
	}
	return term, nil
}

// committedLen returns the length of the committed prefix. Committed
// epochs are contiguous (prefix-consistent appends make every quorum
// holder of epoch k hold identical entries below k), so it is one past
// the highest committed index, found scanning down from the longest log:
// past an uncommitted tail, not through the whole log. Callers hold mu.
func (c *Cluster) committedLen() int {
	for idx := c.maxLogLen() - 1; idx >= 0; idx-- {
		if _, ok := c.committedAt(uint64(idx)); ok {
			return idx + 1
		}
	}
	return 0
}

// Append proposes e as the next log entry of leader's term and commits
// it iff a majority (leader included) accepts. Followers reject terms
// older than their own and accept only prefix-consistently: any suffix
// conflicting with the leader's log is truncated first, then the leader
// replays its own entries from the match point to catch the follower up
// before appending e (Raft's log repair — this is what lets a revived
// replica that missed epochs while dead rejoin the quorum). Replayed
// entries keep their original terms. A leader that cannot assemble a
// quorum is deposed and the entry is NOT committed (the caller must not
// publish it). e's Epoch must equal the leader's log length.
func (c *Cluster) Append(leader int, term uint64, e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ld := c.replicas[leader]
	if !ld.alive {
		return fmt.Errorf("%w: leader %d is dead", ErrDeposed, leader)
	}
	if term != ld.currentTerm {
		return fmt.Errorf("%w: proposing term %d but replica %d is at term %d", ErrDeposed, term, leader, ld.currentTerm)
	}
	if int(e.Epoch) != len(ld.log) {
		return fmt.Errorf("shard: append epoch %d but leader log has %d entries", e.Epoch, len(ld.log))
	}
	// A newer term anywhere the leader can reach deposes it before any
	// log is written, its own included: an entry left on the followers
	// checked before the newer term was found could still add up to a
	// quorum.
	for _, r := range c.replicas {
		if r.id != leader && c.reachable(leader, r.id) && r.currentTerm > term {
			ld.currentTerm = r.currentTerm
			ld.votedFor = -1
			return fmt.Errorf("%w: replica %d is at newer term %d", ErrDeposed, r.id, r.currentTerm)
		}
	}
	e.Term = term
	ld.log = append(ld.log, e)
	acks := 1
	for _, r := range c.replicas {
		if r.id == leader || !c.reachable(leader, r.id) {
			continue
		}
		r.currentTerm = term
		// Truncate everything past the longest prefix shared with the
		// leader's log, replay the leader's entries from there (catch-up:
		// conflicting suffixes are overwritten, missing epochs filled in —
		// committed entries always survive because the election restriction
		// guarantees the leader holds them, so they match and are kept),
		// then append e and ack.
		n := len(r.log)
		if n > int(e.Epoch) {
			n = int(e.Epoch)
		}
		match := 0
		for match < n && r.log[match].Term == ld.log[match].Term && r.log[match].Digest == ld.log[match].Digest {
			match++
		}
		r.log = append(r.log[:match], ld.log[match:]...)
		acks++
	}
	if acks < c.quorum() {
		return fmt.Errorf("%w: epoch %d term %d got %d/%d acks", ErrDeposed, e.Epoch, term, acks, c.quorum())
	}
	return nil
}

// Committed returns the latest entry replicated on a majority of
// replicas (dead ones' logs count — they persist), or ok=false for an
// empty cluster log. This is what a newly elected leader restores from.
func (c *Cluster) Committed() (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.committedLen()
	if n == 0 {
		return Entry{}, false
	}
	return c.committedAt(uint64(n - 1))
}

// CommittedAt returns the committed entry at one epoch index, if any.
func (c *Cluster) CommittedAt(epoch uint64) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committedAt(epoch)
}

func (c *Cluster) maxLogLen() int {
	n := 0
	for _, r := range c.replicas {
		if len(r.log) > n {
			n = len(r.log)
		}
	}
	return n
}

// committedAt reports the entry at idx present on a quorum (matching
// term+digest). Callers hold mu.
func (c *Cluster) committedAt(idx uint64) (Entry, bool) {
	type key struct {
		term   uint64
		digest uint64
	}
	count := make(map[key]int)
	var best Entry
	for _, r := range c.replicas {
		if int(idx) >= len(r.log) {
			continue
		}
		e := r.log[idx]
		k := key{e.Term, e.Digest}
		count[k]++
		if count[k] >= c.quorum() {
			best = e
			return best, true
		}
	}
	return Entry{}, false
}

// TermsAt returns the distinct terms present at one epoch index across
// ALL replica logs (committed or not) — the observable a split-brain
// test uses: committed entries must agree, stray uncommitted terms may
// linger on minority replicas until overwritten.
func (c *Cluster) TermsAt(epoch uint64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[uint64]bool)
	var terms []uint64
	for _, r := range c.replicas {
		if int(epoch) < len(r.log) {
			t := r.log[epoch].Term
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
	}
	return terms
}

// CommittedTermsAt returns the terms with a full quorum of matching
// replicas at an epoch index. The replication safety property — "at most
// one term certifies an epoch" — says this never has more than one
// element.
func (c *Cluster) CommittedTermsAt(epoch uint64) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	count := make(map[uint64]int)
	for _, r := range c.replicas {
		if int(epoch) < len(r.log) {
			e := r.log[epoch]
			count[e.Term]++
		}
	}
	var terms []uint64
	for t, n := range count {
		if n >= c.quorum() {
			terms = append(terms, t)
		}
	}
	return terms
}

// LogLen returns one replica's log length (introspection for tests).
func (c *Cluster) LogLen(id int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.replicas[id].log)
}

// Term returns one replica's current term.
func (c *Cluster) Term(id int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[id].currentTerm
}
