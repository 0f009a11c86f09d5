package mcast

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cdg"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// Options tunes tree construction.
type Options struct {
	// Telemetry, when non-nil, receives mcast_* counters. Observation
	// only.
	Telemetry *telemetry.McastMetrics
}

// Stats reports what a Build or Rebuild pass did.
type Stats struct {
	// Groups is the number of groups routed; Kept counts groups whose
	// old tree survived a Rebuild unchanged, TreesBuilt groups grown
	// from scratch.
	Groups, Kept, TreesBuilt int
	// Receivers counts members served by trees, UBMMembers members on
	// unicast-leg fallback, UnroutedMembers members no path reaches.
	Receivers, UBMMembers, UnroutedMembers int
	// TreeEdges counts committed cast out-channels; TDeps and VDeps the
	// committed dependencies, DepsBlocked refused admissions and
	// Retries attachment restarts after a blocked dependency.
	TreeEdges, TDeps, VDeps, DepsBlocked, Retries int
	// BuildNanos is the wall time of the pass.
	BuildNanos int64
}

// layerState is the per-virtual-layer union graph trees are grown in:
// the layer's complete CDG seeded with the finished unicast routes, plus
// the cast overlay. ok is false when seeding failed (the layer then
// serves its groups entirely over UBM legs).
type layerState struct {
	overlay *cdg.Overlay
	ok      bool
}

type builder struct {
	net    *graph.Network
	res    *routing.Result
	opt    Options
	layers int
	// general is true for routings whose dependency structure the
	// builder cannot reconstruct per layer (pair layers, SL2VL remapping
	// or explicit source routes): every group falls back to UBM legs,
	// which ride the routing as-is.
	general bool
	state   []*layerState
	stats   Stats
}

// Build routes the groups over the finished unicast routing and returns
// the cast table. The result's table must be complete; group members
// must be terminals. Build is deterministic for a fixed input.
func Build(net *graph.Network, res *routing.Result, groups []Group, opt Options) (*routing.CastTable, *Stats, error) {
	return build(net, res, nil, groups, nil, opt)
}

// Rebuild routes the groups reusing old trees where possible: a group
// not in the rebuild set keeps its old tree if every tree channel is
// still alive and every tree dependency can be re-admitted into the new
// union graph; any group that fails re-admission is rebuilt from
// scratch (the widening the fabric relies on). rebuild may be nil to
// keep everything possible.
func Rebuild(net *graph.Network, res *routing.Result, old *routing.CastTable, groups []Group, rebuild map[int]bool, opt Options) (*routing.CastTable, *Stats, error) {
	return build(net, res, old, groups, rebuild, opt)
}

func build(net *graph.Network, res *routing.Result, old *routing.CastTable, groups []Group, rebuild map[int]bool, opt Options) (*routing.CastTable, *Stats, error) {
	start := time.Now()
	if res.Table == nil {
		return nil, nil, fmt.Errorf("mcast: routing result has no forwarding table")
	}
	b := &builder{
		net:     net,
		res:     res,
		opt:     opt,
		layers:  res.VCs,
		general: res.PairLayer != nil || res.SLToVL != nil || res.PairPath != nil,
	}
	if b.layers < 1 {
		b.layers = 1
	}
	b.state = make([]*layerState, b.layers)

	table := routing.NewCastTable()
	// Deterministic group order; duplicated IDs are rejected rather than
	// silently overwritten.
	ordered := append([]Group(nil), groups...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for i := 1; i < len(ordered); i++ {
		if ordered[i].ID == ordered[i-1].ID {
			return nil, nil, fmt.Errorf("mcast: duplicate group id %d", ordered[i].ID)
		}
	}
	for _, g := range ordered {
		if g.ID < 1 {
			return nil, nil, fmt.Errorf("mcast: group id %d (ids are 1-based)", g.ID)
		}
		for _, m := range g.Members {
			if m < 0 || int(m) >= net.NumNodes() || !net.IsTerminal(m) {
				return nil, nil, fmt.Errorf("mcast: group %d member %d is not a terminal", g.ID, m)
			}
		}
	}

	// Pass 1: re-admit kept trees, so their dependencies constrain the
	// trees grown afterwards (not the other way round — kept trees were
	// already published and must survive verbatim or not at all).
	toBuild := make([]Group, 0, len(ordered))
	for _, g := range ordered {
		var kept *routing.CastGroup
		if old != nil && (rebuild == nil || !rebuild[g.ID]) {
			kept = old.Group(g.ID)
		}
		if kept != nil && sameMembers(kept.Members, normalizeMembers(g.Members)) && b.readmit(kept) {
			table.Add(kept.Clone())
			b.stats.Kept++
			b.accountGroup(table.Group(g.ID))
			continue
		}
		toBuild = append(toBuild, g)
	}
	// Pass 2: grow the rest from scratch.
	for _, g := range toBuild {
		cg := b.buildTree(g)
		table.Add(cg)
		b.stats.TreesBuilt++
		b.accountGroup(cg)
	}
	b.stats.Groups = table.NumGroups()
	b.stats.BuildNanos = time.Since(start).Nanoseconds()
	b.report()
	return table, &b.stats, nil
}

// accountGroup folds one routed group into the pass stats.
func (b *builder) accountGroup(cg *routing.CastGroup) {
	b.stats.Receivers += len(cg.Receivers)
	b.stats.UBMMembers += len(cg.UBM)
	b.stats.UnroutedMembers += len(cg.Unrouted)
	b.stats.TreeEdges += cg.TreeEdges()
}

func (b *builder) report() {
	tm := b.opt.Telemetry
	if tm == nil {
		return
	}
	st := &b.stats
	tm.Builds.Inc()
	tm.GroupsRouted.Add(int64(st.Groups))
	tm.TreeEdges.Add(int64(st.TreeEdges))
	tm.TDeps.Add(int64(st.TDeps))
	tm.VDeps.Add(int64(st.VDeps))
	tm.DepsBlocked.Add(int64(st.DepsBlocked))
	tm.Retries.Add(int64(st.Retries))
	tm.UBMMembers.Add(int64(st.UBMMembers))
	tm.UnroutedMembers.Add(int64(st.UnroutedMembers))
	tm.BuildNanos.Observe(st.BuildNanos)
	tm.Events.Emit("mcast_build", map[string]int64{
		"groups":       int64(st.Groups),
		"kept":         int64(st.Kept),
		"built":        int64(st.TreesBuilt),
		"tree_edges":   int64(st.TreeEdges),
		"vdeps":        int64(st.VDeps),
		"ubm_members":  int64(st.UBMMembers),
		"deps_blocked": int64(st.DepsBlocked),
		"build_nanos":  st.BuildNanos,
	})
}

// layer returns the union-graph state of virtual layer l, seeding it on
// first use with the unicast dependencies of every destination routed
// on l (cdg.SeedRoute, recorded orientation).
func (b *builder) layer(l int) *layerState {
	if b.state[l] != nil {
		return b.state[l]
	}
	ls := &layerState{}
	b.state[l] = ls
	if b.general {
		return ls // never seeded; groups fall back to UBM
	}
	g := cdg.NewComplete(b.net)
	for _, d := range b.res.Table.Dests() {
		if len(b.net.Out(d)) == 0 {
			continue
		}
		if int(b.res.Layer(d, d)) != l && b.res.DestLayer != nil {
			continue
		}
		if b.res.DestLayer == nil && l != 0 {
			continue
		}
		dest := d
		if _, err := g.SeedRoute(dest, func(n graph.NodeID) graph.ChannelID {
			return b.res.Table.Next(n, dest)
		}); err != nil {
			// A layer whose own routes cannot be re-seeded (should not
			// happen for a certified routing) serves its groups over UBM.
			return ls
		}
	}
	ls.overlay = cdg.NewOverlay(g)
	ls.ok = true
	return ls
}

// groupLayer assigns group id its virtual layer: round-robin over the
// budget, so cast load spreads deterministically.
func (b *builder) groupLayer(id int) int { return (id - 1) % b.layers }

func normalizeMembers(members []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), members...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for i, m := range out {
		if i == 0 || m != out[i-1] {
			out[n] = m
			n++
		}
	}
	return out[:n]
}

func sameMembers(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rev returns the reverse half of channel c.
func (b *builder) rev(c graph.ChannelID) graph.ChannelID {
	return b.net.Channel(c).Reverse
}

// admitOut runs the dependency admissions for adding out-channel c at
// switch sw of tree cg: the T-type edge from the switch's in-channel and
// the V-type edges with the neighboring siblings in ascending-ID order.
// All edges go through the overlay in recorded (reversed) orientation.
// It reports success; refused admissions leave any edges admitted so far
// committed (a conservative over-constraint — the published tree's
// dependency set stays a subset of the committed acyclic set).
func (b *builder) admitOut(ls *layerState, cg *routing.CastGroup, sw graph.NodeID, in, c graph.ChannelID) bool {
	o := ls.overlay
	if in != graph.NoChannel {
		// Traffic dependency (in, c), recorded as (rev(c), rev(in)).
		if !o.TryAddDep(cdg.DepT, b.rev(c), b.rev(in)) {
			b.stats.DepsBlocked++
			return false
		}
		b.stats.TDeps++
	}
	sibs := cg.Outs(sw)
	i := sort.Search(len(sibs), func(i int) bool { return sibs[i] >= c })
	if i < len(sibs) && sibs[i] == c {
		return true // already an out here
	}
	// Holder of the lower-ID output waits on the higher-ID one: traffic
	// V-dependency (low, high), recorded as (rev(high), rev(low)).
	if i > 0 {
		if !o.TryAddDep(cdg.DepV, b.rev(c), b.rev(sibs[i-1])) {
			b.stats.DepsBlocked++
			return false
		}
		b.stats.VDeps++
	}
	if i < len(sibs) {
		if !o.TryAddDep(cdg.DepV, b.rev(sibs[i]), b.rev(c)) {
			b.stats.DepsBlocked++
			return false
		}
		b.stats.VDeps++
	}
	return true
}

// tree is the in-progress construction state of one group.
type tree struct {
	cg     *routing.CastGroup
	inChan map[graph.NodeID]graph.ChannelID
	inTree map[graph.NodeID]bool
	nodes  []graph.NodeID // join order (deterministic BFS seeding)
}

func (t *tree) join(sw graph.NodeID, in graph.ChannelID) {
	if t.inTree[sw] {
		return
	}
	t.inTree[sw] = true
	t.inChan[sw] = in
	t.nodes = append(t.nodes, sw)
}

// buildTree grows one group's cast tree member by member.
func (b *builder) buildTree(g Group) *routing.CastGroup {
	members := normalizeMembers(g.Members)
	cg := &routing.CastGroup{ID: g.ID, Members: members}
	src := graph.NoNode
	for _, m := range members {
		if b.net.Degree(m) > 0 {
			src = m
			break
		}
	}
	if src == graph.NoNode {
		cg.Unrouted = append([]graph.NodeID(nil), members...)
		return cg // every member disconnected; no traffic possible
	}
	cg.Source = src
	l := b.groupLayer(g.ID)
	cg.SL = uint8(l)
	ls := b.layer(l)

	srcSW := b.net.TerminalSwitch(src)
	inj := b.net.Out(src)[0]
	t := &tree{
		cg:     cg,
		inChan: make(map[graph.NodeID]graph.ChannelID),
		inTree: make(map[graph.NodeID]bool),
	}
	t.join(srcSW, inj)

	for _, m := range members {
		if m == src {
			continue
		}
		switch {
		case b.net.Degree(m) == 0:
			cg.Unrouted = append(cg.Unrouted, m)
		case ls.ok && b.attach(ls, t, m):
			cg.Receivers = append(cg.Receivers, m)
		default:
			// Tree attachment impossible without closing a cycle (or the
			// layer is UBM-only): serve the member over a unicast leg if
			// the routing reaches it at all.
			if _, err := routing.Walk(b.net, b.res, src, m, nil); err != nil {
				cg.Unrouted = append(cg.Unrouted, m)
			} else {
				cg.UBM = append(cg.UBM, m)
			}
		}
	}
	b.prune(cg, srcSW)
	return cg
}

// attach connects member m to the tree: a cycle-free switch path from
// the current tree to m's switch (grown hop by hop with dependency
// admissions, banning the blocking channel and retrying on refusal),
// then the ejection channel to m itself.
func (b *builder) attach(ls *layerState, t *tree, m graph.NodeID) bool {
	msw := b.net.TerminalSwitch(m)
	banned := make(map[graph.ChannelID]bool)
	for !t.inTree[msw] {
		path := b.bfsAttach(t, msw, banned)
		if path == nil {
			return false // no switch path left around the banned channels
		}
		ok := true
		for _, c := range path {
			from := b.net.Channel(c).From
			if !b.admitOut(ls, t.cg, from, t.inChan[from], c) {
				banned[c] = true
				b.stats.Retries++
				ok = false
				break
			}
			t.cg.AddOut(from, c)
			t.join(b.net.Channel(c).To, c)
		}
		if !ok {
			continue // committed prefix stays; retry from closer in
		}
	}
	eject := b.rev(b.net.Out(m)[0])
	if !b.admitOut(ls, t.cg, msw, t.inChan[msw], eject) {
		return false
	}
	t.cg.AddOut(msw, eject)
	return true
}

// bfsAttach finds the shortest switch-to-switch channel path from any
// tree node to target, avoiding banned channels. Deterministic:
// tree-join order seeds the queue, adjacency order expands it.
func (b *builder) bfsAttach(t *tree, target graph.NodeID, banned map[graph.ChannelID]bool) []graph.ChannelID {
	parent := make(map[graph.NodeID]graph.ChannelID)
	visited := make(map[graph.NodeID]bool, len(t.nodes))
	queue := make([]graph.NodeID, 0, len(t.nodes))
	for _, n := range t.nodes {
		visited[n] = true
		queue = append(queue, n)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, c := range b.net.Out(u) {
			if banned[c] {
				continue
			}
			v := b.net.Channel(c).To
			if !b.net.IsSwitch(v) || visited[v] {
				continue
			}
			visited[v] = true
			parent[v] = c
			if v == target {
				var path []graph.ChannelID
				for v != graph.NoNode {
					c, ok := parent[v]
					if !ok {
						break
					}
					path = append(path, c)
					v = b.net.Channel(c).From
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// prune removes branches that reach no receiver (dead steiner arms left
// by failed attachments). Dependencies admitted for pruned branches stay
// committed in the overlay — conservative, never unsound.
func (b *builder) prune(cg *routing.CastGroup, root graph.NodeID) {
	keepEject := make(map[graph.ChannelID]bool)
	for _, m := range cg.Receivers {
		keepEject[b.rev(b.net.Out(m)[0])] = true
	}
	var walk func(sw graph.NodeID) bool
	walk = func(sw graph.NodeID) bool {
		keep := false
		for _, c := range append([]graph.ChannelID(nil), cg.Outs(sw)...) {
			to := b.net.Channel(c).To
			switch {
			case b.net.IsTerminal(to):
				if keepEject[c] {
					keep = true
				} else {
					cg.RemoveOut(sw, c)
				}
			case walk(to):
				keep = true
			default:
				cg.RemoveOut(sw, c)
			}
		}
		return keep
	}
	walk(root)
}

// readmit re-commits every dependency of a kept tree into the new union
// graph; failure means the tree cannot coexist with the repaired unicast
// routes (or lost a channel) and must be rebuilt.
func (b *builder) readmit(cg *routing.CastGroup) bool {
	for _, c := range cg.Channels() {
		if b.net.Channel(c).Failed {
			return false
		}
	}
	// UBM legs ride the current table; they must still reach.
	for _, m := range cg.UBM {
		if _, err := routing.Walk(b.net, b.res, cg.Source, m, nil); err != nil {
			return false
		}
	}
	if cg.TreeEdges() == 0 {
		return true
	}
	l := int(cg.SL)
	if l >= b.layers {
		return false
	}
	ls := b.layer(l)
	if !ls.ok {
		return false
	}
	// Walk the tree from the root re-running every admission.
	srcSW := b.net.TerminalSwitch(cg.Source)
	if b.net.Degree(cg.Source) == 0 {
		return false
	}
	in := map[graph.NodeID]graph.ChannelID{srcSW: b.net.Out(cg.Source)[0]}
	queue := []graph.NodeID{srcSW}
	seen := map[graph.NodeID]bool{srcSW: true}
	visited := 0
	o := ls.overlay
	for head := 0; head < len(queue); head++ {
		sw := queue[head]
		outs := cg.Outs(sw)
		visited += len(outs)
		for idx, c := range outs {
			// The out-set already exists, so admitOut's insertion logic
			// does not apply: re-admit the T-type edge and the V-type
			// edge to the previous sibling directly.
			if inc := in[sw]; inc != graph.NoChannel {
				if !o.TryAddDep(cdg.DepT, b.rev(c), b.rev(inc)) {
					b.stats.DepsBlocked++
					return false
				}
			}
			if idx > 0 {
				if !o.TryAddDep(cdg.DepV, b.rev(c), b.rev(outs[idx-1])) {
					b.stats.DepsBlocked++
					return false
				}
			}
			to := b.net.Channel(c).To
			if b.net.IsSwitch(to) && !seen[to] {
				seen[to] = true
				in[to] = c
				queue = append(queue, to)
			}
		}
	}
	// A kept tree must be a tree: every out-channel reachable from the
	// root exactly once.
	return visited == cg.TreeEdges()
}
