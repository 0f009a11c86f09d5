// Package exists is the existence decision procedure: does ANY
// deadlock-free connected routing exist for this (possibly faulty,
// possibly asymmetric) network on a single virtual lane?
//
// The criterion is the Mendlovic–Matias necessary-and-sufficient
// condition: a deadlock-free routing exists if and only if there is a
// linear order on the channels such that every required
// (source, destination) pair is connected by a walk whose channels
// appear in strictly increasing order. Sufficiency is immediate (an
// increasing walk can never re-enter a dependency cycle — the oracle's
// own Tarjan pass over any such routing finds no cycle); necessity
// follows because an acyclic used-dependency graph linearizes into
// exactly such an order. Two classical reductions make the condition
// decidable in practice:
//
//   - Terminal elimination: terminals have one injection and one
//     delivery channel, used only first resp. last on any path. Placing
//     all injection channels below and all delivery channels above the
//     switch-to-switch channels never creates a cycle, so the decision
//     reduces to the live switch digraph.
//   - Loop erasure: a subsequence of an increasing sequence is still
//     increasing, so increasing walks can be assumed node-simple.
//
// The verdict is constructive in both directions:
//
//   - Routable: Decide returns a witness routing (explicit per-pair
//     paths, one virtual lane) together with the channel order; the
//     caller can feed the witness straight back into oracle.Certify,
//     so a positive answer never has to be trusted — only re-checked.
//   - Unroutable: Decide returns a trap — a cycle of FORCED
//     dependencies. A dependency (c, c') is forced for a required pair
//     when every walk from the pair's source to its destination uses
//     channel c immediately followed by c'; any single-lane routing
//     must therefore contain all of them, and a cycle of forced
//     dependencies is a cycle in every routing's dependency graph.
//     ValidateTrap re-verifies a trap from first principles.
//
// The decision runs per strongly connected component of the switch
// digraph (cross-component traffic follows the condensation DAG, which
// can always be ordered): duplex spanning trees give an all-pairs
// increasing order constructively; failing that, the forced-dependency
// refutation and, for tiny instances, exhaustive order search settle
// the answer. Networks outside all three procedures yield a typed
// *UndecidedError — the caller learns the procedure's limit instead of
// a wrong verdict.
//
// The procedure lives outside package oracle because no certification
// runs it: the oracle's trusted base is graph, routing and oracle alone
// (DESIGN §11). It owes exactly the pairs oracle.Certify owes, by
// calling oracle.DefaultSources rather than keeping a second source
// convention. Its errors read "oracle: ...": the procedure is the
// oracle's adjudicator, and the stress harness prints them verbatim.
package exists

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bfs"
	"repro/internal/cdg"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/routing"
)

// Options configures Decide. Nil Dests default to the oracle's source
// convention (connected terminals, else connected nodes); the sources
// always follow it, matching what oracle.Certify would owe.
type Options struct {
	Dests []graph.NodeID
}

// Forced records one forced dependency: every walk from switch Src to
// switch Dst uses channel From immediately followed by channel To.
type Forced struct {
	From, To graph.ChannelID
	Src, Dst graph.NodeID
}

// Decision is the outcome of the existence decision procedure.
type Decision struct {
	// Routable reports whether a single-lane deadlock-free connected
	// routing exists. Routable at one lane implies routable at any
	// larger budget.
	Routable bool
	// Pairs counts the distinct switch-level pairs the decision covered.
	Pairs int
	// Order is a channel order proving routability: every witness path
	// traverses switch channels in strictly increasing Order position.
	// Set only when Routable.
	Order []graph.ChannelID
	// Witness is a complete routing realizing the order (explicit paths
	// for every owed pair, one virtual lane). oracle.Certify accepts it
	// as-is. Set only when Routable.
	Witness *routing.Result
	// Trap is a cycle of forced dependencies proving non-existence:
	// Trap[i].To == Trap[i+1].From cyclically. Set on refutation unless
	// Exhaustive.
	Trap []Forced
	// Exhaustive marks a verdict established by exhaustive order search
	// (tiny instances) rather than construction or trap.
	Exhaustive bool
}

// UndecidedError reports that the network is outside the decision
// procedure's constructive and refutational reach.
type UndecidedError struct{ Reason string }

func (e *UndecidedError) Error() string { return "oracle: existence undecided: " + e.Reason }

// bruteMaxChannels bounds the exhaustive order search: 8! = 40320
// permutations is the most the last-resort path is allowed to cost.
const bruteMaxChannels = 8

// forcedCheckBudget bounds the number of forced-transition reachability
// checks the refutation pass may spend.
const forcedCheckBudget = 300000

// Decide runs the existence decision procedure.
func Decide(net *graph.Network, opt Options) (*Decision, error) {
	sources := oracle.DefaultSources(net)
	dests := opt.Dests
	if dests == nil {
		dests = sources
	}
	owed := owedPairs(net, dests, sources)
	required := requiredSwitchPairs(net, owed)
	dec := &Decision{Pairs: len(required)}
	if len(required) == 0 {
		// Only same-switch (injection + delivery) pairs are owed; those
		// are routable on any network.
		wit, err := buildWitness(net, dests, owed,
			func(u, v graph.NodeID) []graph.ChannelID { return nil }, map[graph.ChannelID]int{})
		if err != nil {
			return nil, err
		}
		dec.Routable = true
		dec.Order = liveSwitchChannels(net)
		dec.Witness = wit
		return dec, nil
	}
	comp, sccs := switchSCCs(net)

	// Constructive attempt: a duplex spanning tree per SCC supports ALL
	// intra-SCC pairs (up to the root, then down), and the condensation
	// DAG orders everything across SCCs.
	plans := make([]*sccPlan, len(sccs))
	constructive := true
	for i, members := range sccs {
		if len(members) < 2 {
			continue
		}
		if plans[i] = duplexPlan(net, members, comp, i); plans[i] == nil {
			constructive = false
		}
	}
	if constructive {
		r := newPlanRouter(net, comp, sccs, plans)
		wit, err := buildWitness(net, dests, owed, r.swPath, r.pos)
		if err != nil {
			return nil, err
		}
		dec.Routable = true
		dec.Order = r.order
		dec.Witness = wit
		return dec, nil
	}

	// Refutation attempt: a cycle of forced dependencies rules out every
	// single-lane routing.
	if trap := findTrap(net, required); trap != nil {
		dec.Trap = trap
		return dec, nil
	}

	// Last resort: exhaustive search over channel orders.
	chans := liveSwitchChannels(net)
	if len(chans) <= bruteMaxChannels {
		perm := searchOrder(net, chans, required)
		dec.Exhaustive = true
		if perm == nil {
			return dec, nil
		}
		r := newPermRouter(net, perm)
		wit, err := buildWitness(net, dests, owed, r.swPath, r.pos)
		if err != nil {
			return nil, err
		}
		dec.Routable = true
		dec.Order = perm
		dec.Witness = wit
		return dec, nil
	}
	return nil, &UndecidedError{Reason: fmt.Sprintf(
		"no duplex spanning tree in some strongly connected component, no forced-dependency cycle, and %d switch channels exceed the exhaustive bound %d",
		len(chans), bruteMaxChannels)}
}

// ValidateTrap re-verifies an unroutability trap from first principles:
// the entries must chain into a dependency cycle, every dependency must
// be a real channel transition, and every dependency must actually be
// forced for its recorded pair.
func ValidateTrap(net *graph.Network, trap []Forced) error {
	if len(trap) == 0 {
		return errors.New("oracle: empty trap")
	}
	for i, f := range trap {
		next := trap[(i+1)%len(trap)]
		if f.To != next.From {
			return fmt.Errorf("oracle: trap broken at %d: dependency (%d,%d) not followed by one on %d", i, f.From, f.To, f.To)
		}
		a, b := net.Channel(f.From), net.Channel(f.To)
		if a.Failed || b.Failed {
			return fmt.Errorf("oracle: trap entry %d uses a failed channel", i)
		}
		if a.To != b.From {
			return fmt.Errorf("oracle: trap entry %d is not a transition: channel %d ends at %d, channel %d starts at %d", i, f.From, a.To, f.To, b.From)
		}
		if !lineReach(net, f.Src, f.Dst, f.From, f.To, false) {
			return fmt.Errorf("oracle: trap entry %d: pair (%d,%d) cannot meet at all", i, f.Src, f.Dst)
		}
		if lineReach(net, f.Src, f.Dst, f.From, f.To, true) {
			return fmt.Errorf("oracle: trap entry %d: dependency (%d,%d) is not forced for pair (%d,%d)", i, f.From, f.To, f.Src, f.Dst)
		}
	}
	return nil
}

// Engine adapts the decision procedure into a routing.Engine: on
// routable networks it returns the witness routing (one lane, explicit
// paths); on unroutable or undecided networks it refuses. Registering
// it in a differential roster means every trial the procedure calls
// routable has an engine whose output the oracle can certify — the
// procedure's positive answers are themselves under differential test.
type Engine struct{}

// Name implements routing.Engine.
func (Engine) Name() string { return "exists" }

// Claims implements routing.Claimant: the witness is a deadlock-free
// single-lane routing by construction.
func (Engine) Claims() routing.Claims { return routing.Claims{DeadlockFree: true, MinVCs: 1} }

// Route implements routing.Engine.
func (Engine) Route(net *graph.Network, dests []graph.NodeID, maxVCs int) (*routing.Result, error) {
	if maxVCs < 1 {
		return nil, errors.New("exists: need at least one virtual channel")
	}
	dec, err := Decide(net, Options{Dests: dests})
	if err != nil {
		return nil, err
	}
	if !dec.Routable {
		return nil, errors.New("exists: no single-lane deadlock-free routing exists for this network")
	}
	return dec.Witness, nil
}

// owedPairs lists the (source, destination) pairs a routing owes,
// mirroring the oracle's walk exactly: destinations with no out channel
// are skipped, and a source is owed only if it can reach the destination
// (reverse reachability).
func owedPairs(net *graph.Network, dests, sources []graph.NodeID) [][2]graph.NodeID {
	var owed [][2]graph.NodeID
	for _, d := range dests {
		if len(net.Out(d)) == 0 {
			continue
		}
		reach := bfs.Reverse(net, d)
		for _, s := range sources {
			if s == d || reach.Dist[s] < 0 {
				continue
			}
			owed = append(owed, [2]graph.NodeID{s, d})
		}
	}
	return owed
}

// attachedSwitch maps a node to its switch (terminals to the switch
// they attach to).
func attachedSwitch(net *graph.Network, n graph.NodeID) graph.NodeID {
	if net.IsTerminal(n) {
		return net.TerminalSwitch(n)
	}
	return n
}

// requiredSwitchPairs reduces the owed pairs to distinct switch-level
// pairs (terminal elimination), sorted for determinism.
func requiredSwitchPairs(net *graph.Network, owed [][2]graph.NodeID) [][2]graph.NodeID {
	seen := make(map[[2]graph.NodeID]bool)
	for _, p := range owed {
		u := attachedSwitch(net, p[0])
		v := attachedSwitch(net, p[1])
		if u != v {
			seen[[2]graph.NodeID{u, v}] = true
		}
	}
	out := make([][2]graph.NodeID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// liveSwitchChannels lists non-failed switch-to-switch channels.
func liveSwitchChannels(net *graph.Network) []graph.ChannelID {
	var out []graph.ChannelID
	for c := 0; c < net.NumChannels(); c++ {
		ch := net.Channel(graph.ChannelID(c))
		if !ch.Failed && net.IsSwitch(ch.From) && net.IsSwitch(ch.To) {
			out = append(out, graph.ChannelID(c))
		}
	}
	return out
}

// switchSCCs computes the strongly connected components of the live
// switch digraph (iterative Tarjan). comp[n] is the component index or
// -1 for terminals and dead switches; components come out in reverse
// topological order of the condensation.
func switchSCCs(net *graph.Network) (comp []int, sccs [][]graph.NodeID) {
	n := net.NumNodes()
	comp = make([]int, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range comp {
		comp[i] = -1
		index[i] = -1
	}
	var stack []graph.NodeID
	next := int32(0)
	type frame struct {
		n  graph.NodeID
		ci int
	}
	for r := 0; r < n; r++ {
		root := graph.NodeID(r)
		if !net.IsSwitch(root) || index[root] >= 0 {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		frames := []frame{{root, 0}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.n
			outs := net.Out(u)
			advanced := false
			for f.ci < len(outs) {
				c := outs[f.ci]
				f.ci++
				to := net.Channel(c).To
				if !net.IsSwitch(to) {
					continue
				}
				if index[to] < 0 {
					index[to], low[to] = next, next
					next++
					stack = append(stack, to)
					onStack[to] = true
					frames = append(frames, frame{to, 0})
					advanced = true
					break
				}
				if onStack[to] && index[to] < low[u] {
					low[u] = index[to]
				}
			}
			if advanced {
				continue
			}
			if low[u] == index[u] {
				var members []graph.NodeID
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp[m] = len(sccs)
					members = append(members, m)
					if m == u {
						break
					}
				}
				sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
				sccs = append(sccs, members)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].n
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
		}
	}
	return comp, sccs
}

// sccPlan is an all-pairs increasing order for one SCC, built on a
// duplex spanning tree: the up channels (toward the root) ordered by
// descending tail depth, then the down channels by ascending head
// depth. Any pair routes up to the root and down, visiting channels in
// strictly increasing order.
type sccPlan struct {
	root  graph.NodeID
	up    map[graph.NodeID]graph.ChannelID // n -> parent(n)
	down  map[graph.NodeID]graph.ChannelID // parent(n) -> n
	depth map[graph.NodeID]int
	order []graph.ChannelID
}

// duplexPlan builds the plan, or nil when the SCC's duplex (both
// directions live) subgraph does not span it.
func duplexPlan(net *graph.Network, members []graph.NodeID, comp []int, ci int) *sccPlan {
	pl := &sccPlan{
		root:  members[0], // members are sorted; lowest ID is the root
		up:    make(map[graph.NodeID]graph.ChannelID),
		down:  make(map[graph.NodeID]graph.ChannelID),
		depth: make(map[graph.NodeID]int),
	}
	pl.depth[pl.root] = 0
	queue := []graph.NodeID{pl.root}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, c := range net.Out(u) {
			ch := net.Channel(c)
			if !net.IsSwitch(ch.To) || comp[ch.To] != ci {
				continue
			}
			if _, seen := pl.depth[ch.To]; seen {
				continue
			}
			if net.Channel(ch.Reverse).Failed {
				continue // tree links must be live both ways
			}
			pl.depth[ch.To] = pl.depth[u] + 1
			pl.down[ch.To] = c
			pl.up[ch.To] = ch.Reverse
			queue = append(queue, ch.To)
		}
	}
	if len(pl.depth) != len(members) {
		return nil
	}
	type ent struct {
		c     graph.ChannelID
		depth int
	}
	var ups, downs []ent
	for n, c := range pl.up {
		ups = append(ups, ent{c, pl.depth[n]})
	}
	for n, c := range pl.down {
		downs = append(downs, ent{c, pl.depth[n]})
	}
	sort.Slice(ups, func(i, j int) bool {
		if ups[i].depth != ups[j].depth {
			return ups[i].depth > ups[j].depth
		}
		return ups[i].c < ups[j].c
	})
	sort.Slice(downs, func(i, j int) bool {
		if downs[i].depth != downs[j].depth {
			return downs[i].depth < downs[j].depth
		}
		return downs[i].c < downs[j].c
	})
	for _, e := range ups {
		pl.order = append(pl.order, e.c)
	}
	for _, e := range downs {
		pl.order = append(pl.order, e.c)
	}
	return pl
}

// pathUp returns the tree channels a -> root in travel order.
func (pl *sccPlan) pathUp(net *graph.Network, a graph.NodeID) []graph.ChannelID {
	var path []graph.ChannelID
	for a != pl.root {
		c := pl.up[a]
		path = append(path, c)
		a = net.Channel(c).To
	}
	return path
}

// pathDown returns the tree channels root -> b in travel order.
func (pl *sccPlan) pathDown(net *graph.Network, b graph.NodeID) []graph.ChannelID {
	var rev []graph.ChannelID
	for b != pl.root {
		c := pl.down[b]
		rev = append(rev, c)
		b = net.Channel(c).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// loopErase removes loops from a walk, keeping a node-simple path; a
// subsequence of an increasing channel sequence stays increasing.
func loopErase(net *graph.Network, start graph.NodeID, path []graph.ChannelID) []graph.ChannelID {
	out := make([]graph.ChannelID, 0, len(path))
	nodes := []graph.NodeID{start}
	pos := map[graph.NodeID]int{start: 0}
	for _, c := range path {
		to := net.Channel(c).To
		if j, ok := pos[to]; ok {
			for _, n := range nodes[j+1:] {
				delete(pos, n)
			}
			out = out[:j]
			nodes = nodes[:j+1]
			continue
		}
		out = append(out, c)
		nodes = append(nodes, to)
		pos[to] = len(nodes) - 1
	}
	return out
}

// planRouter routes switch pairs over the SCC plans and the
// condensation DAG, assembling the global channel order: per SCC in
// topological order, its tree order followed by its outgoing bridges.
type planRouter struct {
	net     *graph.Network
	comp    []int
	plans   []*sccPlan
	order   []graph.ChannelID
	pos     map[graph.ChannelID]int
	condAdj map[int][]condEdge
}

type condEdge struct {
	to     int
	bridge graph.ChannelID
}

func newPlanRouter(net *graph.Network, comp []int, sccs [][]graph.NodeID, plans []*sccPlan) *planRouter {
	r := &planRouter{
		net:     net,
		comp:    comp,
		plans:   plans,
		pos:     make(map[graph.ChannelID]int),
		condAdj: make(map[int][]condEdge),
	}
	// Tarjan emits SCCs in reverse topological order.
	topoPos := make([]int, len(sccs))
	for t := 0; t < len(sccs); t++ {
		topoPos[len(sccs)-1-t] = t
	}
	bridges := make(map[int][]graph.ChannelID)
	chosen := make(map[[2]int]graph.ChannelID)
	for _, c := range liveSwitchChannels(net) {
		ch := net.Channel(c)
		a, b := comp[ch.From], comp[ch.To]
		if a < 0 || b < 0 || a == b {
			continue
		}
		bridges[a] = append(bridges[a], c)
		key := [2]int{a, b}
		if prev, ok := chosen[key]; !ok || c < prev {
			chosen[key] = c
		}
	}
	for key, c := range chosen {
		r.condAdj[key[0]] = append(r.condAdj[key[0]], condEdge{to: key[1], bridge: c})
	}
	for _, edges := range r.condAdj {
		sort.Slice(edges, func(i, j int) bool { return edges[i].to < edges[j].to })
	}
	add := func(c graph.ChannelID) {
		r.pos[c] = len(r.order)
		r.order = append(r.order, c)
	}
	for t := len(sccs) - 1; t >= 0; t-- { // topological order
		i := t
		if plans[i] != nil {
			for _, c := range plans[i].order {
				add(c)
			}
		}
		bl := bridges[i]
		sort.Slice(bl, func(x, y int) bool {
			tx, ty := topoPos[comp[net.Channel(bl[x]).To]], topoPos[comp[net.Channel(bl[y]).To]]
			if tx != ty {
				return tx < ty
			}
			return bl[x] < bl[y]
		})
		for _, c := range bl {
			add(c)
		}
	}
	// Unused intra-SCC channels (non-tree) go to the very end; no
	// witness path uses them.
	for _, c := range liveSwitchChannels(net) {
		if _, ok := r.pos[c]; !ok {
			add(c)
		}
	}
	return r
}

// intra routes a -> b inside one SCC (up to the root, down, loop-erased).
func (r *planRouter) intra(pl *sccPlan, a, b graph.NodeID) []graph.ChannelID {
	if a == b {
		return nil
	}
	walk := append(pl.pathUp(r.net, a), pl.pathDown(r.net, b)...)
	return loopErase(r.net, a, walk)
}

// swPath returns an increasing switch path u -> v, or nil when none is
// available (which would be an internal inconsistency for owed pairs).
func (r *planRouter) swPath(u, v graph.NodeID) []graph.ChannelID {
	a, b := r.comp[u], r.comp[v]
	if a < 0 || b < 0 {
		return nil
	}
	if a == b {
		return r.intra(r.plans[a], u, v)
	}
	// BFS over the condensation DAG.
	prev := map[int]condEdge{}
	seen := map[int]bool{a: true}
	queue := []int{a}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		if i == b {
			break
		}
		for _, e := range r.condAdj[i] {
			if !seen[e.to] {
				seen[e.to] = true
				prev[e.to] = condEdge{to: i, bridge: e.bridge}
				queue = append(queue, e.to)
			}
		}
	}
	if !seen[b] {
		return nil
	}
	var chain []graph.ChannelID
	for i := b; i != a; {
		e := prev[i]
		chain = append(chain, e.bridge)
		i = e.to
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	var path []graph.ChannelID
	cur := u
	for _, br := range chain {
		ch := r.net.Channel(br)
		if cur != ch.From {
			pl := r.plans[r.comp[cur]]
			if pl == nil {
				return nil // singleton SCC but not at the bridge tail
			}
			path = append(path, r.intra(pl, cur, ch.From)...)
		}
		path = append(path, br)
		cur = ch.To
	}
	if cur != v {
		pl := r.plans[r.comp[v]]
		if pl == nil {
			return nil
		}
		path = append(path, r.intra(pl, cur, v)...)
	}
	return path
}

// permRouter routes switch pairs under an explicit channel order by
// dynamic programming over increasing walks.
type permRouter struct {
	net  *graph.Network
	perm []graph.ChannelID
	pos  map[graph.ChannelID]int
}

func newPermRouter(net *graph.Network, perm []graph.ChannelID) *permRouter {
	r := &permRouter{net: net, perm: perm, pos: make(map[graph.ChannelID]int, len(perm))}
	for i, c := range perm {
		r.pos[c] = i
	}
	return r
}

func (r *permRouter) swPath(u, v graph.NodeID) []graph.ChannelID {
	reach, end := increasingReach(r.net, r.perm, u, v)
	if end < 0 {
		return nil
	}
	// Backtrack the increasing walk, then loop-erase it.
	var rev []graph.ChannelID
	for i := end; ; {
		rev = append(rev, r.perm[i])
		need := r.net.Channel(r.perm[i]).From
		if need == u {
			break
		}
		j := -1
		for k := i - 1; k >= 0; k-- {
			if reach[k] && r.net.Channel(r.perm[k]).To == need {
				j = k
				break
			}
		}
		if j < 0 {
			return nil
		}
		i = j
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return loopErase(r.net, u, rev)
}

// increasingReach marks which channels of perm terminate an increasing
// walk from u and returns the index of the first such channel whose
// head is v (-1 if none).
func increasingReach(net *graph.Network, perm []graph.ChannelID, u, v graph.NodeID) ([]bool, int) {
	reach := make([]bool, len(perm))
	found := -1
	for i, c := range perm {
		ch := net.Channel(c)
		if ch.From == u {
			reach[i] = true
		} else {
			for j := 0; j < i; j++ {
				if reach[j] && net.Channel(perm[j]).To == ch.From {
					reach[i] = true
					break
				}
			}
		}
		if reach[i] && ch.To == v && found < 0 {
			found = i
		}
	}
	return reach, found
}

// searchOrder exhaustively searches channel orders satisfying every
// required pair (Heap's algorithm), returning the first witness order.
func searchOrder(net *graph.Network, chans []graph.ChannelID, required [][2]graph.NodeID) []graph.ChannelID {
	if len(required) == 0 {
		out := make([]graph.ChannelID, len(chans))
		copy(out, chans)
		return out
	}
	perm := make([]graph.ChannelID, len(chans))
	copy(perm, chans)
	ok := func() bool {
		for _, p := range required {
			if _, found := increasingReach(net, perm, p[0], p[1]); found < 0 {
				return false
			}
		}
		return true
	}
	n := len(perm)
	counters := make([]int, n)
	if ok() {
		return append([]graph.ChannelID(nil), perm...)
	}
	for i := 0; i < n; {
		if counters[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[counters[i]], perm[i] = perm[i], perm[counters[i]]
			}
			if ok() {
				return append([]graph.ChannelID(nil), perm...)
			}
			counters[i]++
			i = 0
		} else {
			counters[i] = 0
			i++
		}
	}
	return nil
}

// lineReach reports whether v is reachable from u by a walk over live
// switch channels; with skip set, the single transition skipFrom ->
// skipTo is forbidden. Forcedness of a dependency is exactly
// !lineReach(..., skip=true) for a pair that can meet at all.
func lineReach(net *graph.Network, u, v graph.NodeID, skipFrom, skipTo graph.ChannelID, skip bool) bool {
	visited := make(map[graph.ChannelID]bool)
	var queue []graph.ChannelID
	for _, c := range net.Out(u) {
		if net.IsSwitch(net.Channel(c).To) {
			visited[c] = true
			queue = append(queue, c)
		}
	}
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		to := net.Channel(c).To
		if to == v {
			return true
		}
		for _, c2 := range net.Out(to) {
			if !net.IsSwitch(net.Channel(c2).To) {
				continue
			}
			if skip && c == skipFrom && c2 == skipTo {
				continue
			}
			if !visited[c2] {
				visited[c2] = true
				queue = append(queue, c2)
			}
		}
	}
	return false
}

// findTrap searches for a cycle of forced dependencies over the
// required pairs; nil means no refutation found (NOT a routability
// proof). Bounded by forcedCheckBudget. The forced dependencies form an
// induced CDG whose users are the indices of the required pairs that
// force them (the first pair found); its first cycle, searched over
// ascending successors, is the trap, in the order FindCycle returns it.
// A terminal has one link, so no switch-to-switch walk passes through
// one and the reach cones may be plain breadth-first searches.
func findTrap(net *graph.Network, required [][2]graph.NodeID) []Forced {
	var forced cdg.Induced
	forced.Reset(net.NumChannels())
	checks := 0
	for pi, p := range required {
		u, v := p[0], p[1]
		fwd := bfs.Forward(net, u).Dist
		rev := bfs.Reverse(net, v).Dist
		for _, a := range liveSwitchChannels(net) {
			ca := net.Channel(a)
			// A forced transition must lie on some u -> v walk; prune
			// channels outside the reach cones (sound: pruned transitions
			// cannot be forced).
			if fwd[ca.From] < 0 || rev[ca.To] < 0 {
				continue
			}
			for _, b := range net.Out(ca.To) {
				cb := net.Channel(b)
				if !net.IsSwitch(cb.To) || rev[cb.To] < 0 {
					continue
				}
				d := forced.Dep(a, b)
				if d.Count > 0 {
					continue
				}
				checks++
				if checks > forcedCheckBudget {
					return nil
				}
				if !lineReach(net, u, v, a, b, true) {
					d.Count = 1
					d.Users = append(d.Users, int32(pi))
				}
			}
		}
	}
	forced.SortSuccessors()
	cycle := forced.FindCycle()
	if cycle == nil {
		return nil
	}
	trap := make([]Forced, 0, len(cycle))
	for _, e := range cycle {
		p := required[forced.Dep(e[0], e[1]).Users[0]]
		trap = append(trap, Forced{From: e[0], To: e[1], Src: p[0], Dst: p[1]})
	}
	return trap
}

// buildWitness assembles the routable verdict's routing: explicit
// per-pair paths (injection + increasing switch path + delivery) on a
// single lane, over an empty destination table (the oracle walks the
// explicit overrides). Every path is re-checked for continuity and
// strictly increasing switch-channel positions before it is emitted.
func buildWitness(net *graph.Network, dests []graph.NodeID, owed [][2]graph.NodeID,
	swPath func(u, v graph.NodeID) []graph.ChannelID, pos map[graph.ChannelID]int) (*routing.Result, error) {
	res := &routing.Result{
		Algorithm: "exists",
		Table:     routing.NewTable(net, dests),
		VCs:       1,
		PairPath:  make(map[uint64][]graph.ChannelID, len(owed)),
	}
	for _, p := range owed {
		s, d := p[0], p[1]
		u := attachedSwitch(net, s)
		v := attachedSwitch(net, d)
		var path []graph.ChannelID
		if net.IsTerminal(s) {
			path = append(path, net.Out(s)[0])
		}
		if u != v {
			sp := swPath(u, v)
			if sp == nil {
				return nil, fmt.Errorf("oracle: internal: no witness path for owed pair (%d,%d)", s, d)
			}
			path = append(path, sp...)
		}
		if net.IsTerminal(d) {
			dc := net.FindChannel(v, d)
			if dc == graph.NoChannel {
				return nil, fmt.Errorf("oracle: internal: owed destination %d has no delivery channel", d)
			}
			path = append(path, dc)
		}
		if err := checkWitnessPath(net, s, d, path, pos); err != nil {
			return nil, err
		}
		res.PairPath[routing.PairKey(s, d)] = path
	}
	return res, nil
}

// checkWitnessPath re-checks one witness path: continuous from s to d,
// live channels, terminal channels only at the ends, and switch
// channels in strictly increasing order position.
func checkWitnessPath(net *graph.Network, s, d graph.NodeID, path []graph.ChannelID, pos map[graph.ChannelID]int) error {
	if len(path) == 0 {
		return fmt.Errorf("oracle: internal: empty witness path (%d,%d)", s, d)
	}
	cur := s
	last := -1
	for i, c := range path {
		ch := net.Channel(c)
		if ch.Failed {
			return fmt.Errorf("oracle: internal: witness path (%d,%d) uses failed channel %d", s, d, c)
		}
		if ch.From != cur {
			return fmt.Errorf("oracle: internal: witness path (%d,%d) discontinuous at hop %d", s, d, i)
		}
		if p, ok := pos[c]; ok {
			if p <= last {
				return fmt.Errorf("oracle: internal: witness path (%d,%d) not increasing at hop %d", s, d, i)
			}
			last = p
		} else if !(i == 0 && net.IsTerminal(s)) && !(i == len(path)-1 && net.IsTerminal(d)) {
			return fmt.Errorf("oracle: internal: witness path (%d,%d) uses unordered channel %d mid-path", s, d, c)
		}
		cur = ch.To
	}
	if cur != d {
		return fmt.Errorf("oracle: internal: witness path (%d,%d) ends at %d", s, d, cur)
	}
	return nil
}
