package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcast"
	"repro/internal/routing"
	"repro/internal/routing/verify"
)

// LayerJob is one virtual layer's share of an event repair: the
// destinations to re-route and the layer's surviving destinations whose
// dependencies seed the repair CDG. Jobs of one event own disjoint table
// columns, so any subset may run concurrently; each job's output depends
// only on its own inputs, never on scheduling — the property the sharded
// control plane relies on for digest-equal sharded-vs-monolithic tables.
type LayerJob struct {
	Layer  uint8
	Repair []graph.NodeID
	Kept   []graph.NodeID
}

// planJobs groups the affected destinations of one event by virtual
// layer, in table destination order (deterministic).
func planJobs(old *Snapshot, affected map[graph.NodeID]struct{}) []LayerJob {
	oldRes := old.Result
	dests := oldRes.Table.Dests()
	byLayer := make(map[uint8]*LayerJob)
	var layers []uint8
	for i, d := range dests {
		var l uint8
		if oldRes.DestLayer != nil {
			l = oldRes.DestLayer[i]
		}
		j := byLayer[l]
		if j == nil {
			j = &LayerJob{Layer: l}
			byLayer[l] = j
			layers = append(layers, l)
		}
		if _, ok := affected[d]; ok {
			j.Repair = append(j.Repair, d)
		} else {
			j.Kept = append(j.Kept, d)
		}
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i] < layers[j] })
	jobs := make([]LayerJob, 0, len(layers))
	for _, l := range layers {
		if j := byLayer[l]; len(j.Repair) > 0 {
			jobs = append(jobs, *j)
		}
	}
	return jobs
}

// JobExecutor schedules the planned layer jobs by calling run(i) for
// each job index exactly once and returning when all calls finished.
// Scheduling cannot change the output (jobs are independent and each
// run(i) is deterministic in the job alone); it only changes where and
// how concurrently the work happens — which is why sharded and
// monolithic control planes produce digest-equal tables. Manager.Apply
// uses a bounded worker pool; the sharded control plane passes
// ApplyGated a region-affine executor that inspects the jobs to route
// them.
type JobExecutor func(jobs []LayerJob, run func(i int))

// escapeRoot caches one layer's escape-path root and its spanning tree.
// While churn stays outside the tree, the root is re-passed as a repair
// hint, eliding the Brandes betweenness pass that otherwise reruns from
// scratch on every event (the dominant repair cost on large fabrics).
type escapeRoot struct {
	root graph.NodeID
	tree *graph.Tree
}

// runner is the routing-computation half of the Manager: it owns the Nue
// engine, executes planned repairs (with escape-root reuse), and
// verifies/post-checks candidate results. It holds no epoch state and
// publishes nothing. Methods are not safe for concurrent use; the
// Manager serializes events.
type runner struct {
	opts  Options
	nue   *core.Nue
	roots map[uint8]escapeRoot
	// check is verify.Check; a field so tests can observe when it runs.
	check func(*graph.Network, *routing.Result) error
}

// newRunner builds the computation layer for the manager's (defaulted)
// options.
func newRunner(opts Options) *runner {
	nopts := core.DefaultOptions()
	nopts.Seed = opts.Seed
	nopts.Workers = opts.Workers
	nopts.Telemetry = opts.EngineTelemetry
	return &runner{
		opts:  opts,
		nue:   core.New(nopts),
		roots: make(map[uint8]escapeRoot),
		check: func(net *graph.Network, res *routing.Result) error {
			_, err := verify.Check(net, res, nil)
			return err
		},
	}
}

// routeFull recomputes the whole fabric from scratch on net. The root
// cache is dropped: full routings pick their own roots internally.
func (r *runner) routeFull(net *graph.Network) (*routing.Result, error) {
	dests := destinations(net)
	if len(dests) == 0 {
		return nil, errors.New("fabric: network has no destinations")
	}
	clear(r.roots)
	return r.nue.Route(net, dests, r.opts.MaxVCs)
}

// invalidateRoots drops cached escape roots the changed channels can no
// longer vouch for: every cache entry whose tree contains a newly failed
// channel, and — conservatively — every entry when a channel was
// restored (a join can reconnect a component the old tree never spanned).
func (r *runner) invalidateRoots(newNet *graph.Network, changed []graph.ChannelID) {
	for _, c := range changed {
		if !newNet.Channel(c).Failed {
			clear(r.roots)
			return
		}
	}
	for l, er := range r.roots {
		for _, c := range changed {
			if er.tree.IsTreeChannel(c) {
				delete(r.roots, l)
				break
			}
		}
	}
}

// jobOutcome collects one layer job's result for report aggregation and
// root-cache write-back.
type jobOutcome struct {
	stats *core.RepairStats
	err   error
}

// runJob executes one planned layer job against table (bound to newNet):
// one core.RepairLayer call, which widens to the whole layer by itself
// when the incremental repair is infeasible. The cached escape root of
// the layer, if still valid, is passed as a hint. Safe to call
// concurrently for distinct jobs of one plan (the root cache is only read
// here; write-back happens in retable after the barrier).
func (r *runner) runJob(newNet *graph.Network, table *routing.Table, job LayerJob) jobOutcome {
	req := core.RepairRequest{
		Net:    newNet,
		Table:  table,
		Repair: job.Repair,
		Kept:   job.Kept,
	}
	if er, ok := r.roots[job.Layer]; ok {
		req.RootHint, req.HasRootHint = er.root, true
	}
	stats, err := r.nue.RepairLayer(req)
	return jobOutcome{stats, err}
}

// retable computes the post-event routing for newNet: the incremental
// per-layer repair (scheduled by exec), falling back to a full recompute
// when a layer fails or the combined result does not verify. This is
// pure computation — the caller owns mutation, index maintenance, and
// publication.
func (r *runner) retable(st *State, old *Snapshot, newNet *graph.Network, changed []graph.ChannelID,
	report *EventReport, exec JobExecutor) (*routing.Result, error) {

	if r.opts.FullRecompute {
		return r.fullRecompute(st, newNet, report)
	}
	oldRes := old.Result
	r.invalidateRoots(newNet, changed)

	table := oldRes.Table.Clone(newNet)
	affected := affectedDests(newNet, table, changed)
	if len(affected) == 0 {
		// Topology changed but no unicast route is impacted (e.g. failing
		// an unused link): republish the same entries on the new network.
		// Cast trees may still be hit — finishResult repairs them.
		res := resultWith(oldRes, table)
		if err := r.finishResult(st, newNet, res, oldRes.Cast, changed, report); err != nil {
			return nil, err
		}
		return res, nil
	}

	jobs := planJobs(old, affected)
	outs := make([]jobOutcome, len(jobs))
	barrier := time.Now()
	exec(jobs, func(i int) {
		outs[i] = r.runJob(newNet, table, jobs[i])
	})
	report.RepairTime = time.Since(barrier)
	for i, j := range jobs {
		out := outs[i]
		if out.err != nil {
			// Last resort: re-route the whole fabric.
			res, err := r.fullRecompute(st, newNet, report)
			if err != nil {
				return nil, fmt.Errorf("layer %d repair failed (%v) and full recompute failed: %w", j.Layer, out.err, err)
			}
			return res, nil
		}
		if out.stats.Tree != nil {
			r.roots[j.Layer] = escapeRoot{root: out.stats.Root, tree: out.stats.Tree}
		}
		if out.stats.RootReused {
			report.RootsReused++
		}
		if out.stats.Rung >= 3 {
			// Rungs 3 and 4 re-routed the kept destinations as well.
			report.LayerRebuilds++
		}
		report.RepairedDests += out.stats.Routed
		report.UnreachableDests += out.stats.Unreachable
		report.Seeded.Channels += out.stats.Seeded.Channels
		report.Seeded.Deps += out.stats.Seeded.Deps
	}

	res := resultWith(oldRes, table)
	if err := r.finishResult(st, newNet, res, oldRes.Cast, changed, report); err != nil {
		// Defense in depth: an invalid incremental transition is replaced
		// by a verified full recompute.
		full, ferr := r.fullRecompute(st, newNet, report)
		if ferr != nil {
			return nil, fmt.Errorf("incremental transition refused (%v) and full recompute failed: %w", err, ferr)
		}
		return full, nil
	}
	return res, nil
}

// finishResult completes a to-be-published result: the multicast trees
// are repaired against the new routing (kept where their channels are
// alive and their dependencies re-admit into the new union graph,
// rebuilt otherwise, starting from the groups the changed channels
// touch), and the combined configuration is verified / post-checked.
// With no configured groups it reduces to maybeVerify.
func (r *runner) finishResult(st *State, newNet *graph.Network, res *routing.Result, oldCast *routing.CastTable,
	changed []graph.ChannelID, report *EventReport) error {
	if len(r.opts.Groups) > 0 {
		rebuild := st.castRebuildSet(changed)
		cast, cs, err := mcast.Rebuild(newNet, res, oldCast, r.opts.Groups, rebuild, mcast.Options{Telemetry: r.opts.McastTelemetry})
		if err != nil {
			return fmt.Errorf("cast repair: %w", err)
		}
		res.Cast = cast
		report.CastGroups = cs.Groups
		report.CastKept = cs.Kept
		report.CastRebuilt = cs.TreesBuilt
		report.CastUBM = cs.UBMMembers
	}
	return r.maybeVerify(newNet, res, report)
}

// fullRecompute routes the fabric (and its cast trees) from scratch and
// verifies if required.
func (r *runner) fullRecompute(st *State, newNet *graph.Network, report *EventReport) (*routing.Result, error) {
	res, err := r.routeFull(newNet)
	if err != nil {
		return nil, err
	}
	report.FullRecompute = true
	report.RepairedDests = report.TotalDests
	if err := r.finishResult(st, newNet, res, nil, nil, report); err != nil {
		return nil, err
	}
	return res, nil
}

// maybeVerify certifies a candidate (network, result) pair, epoch 0 and
// every later one alike: the configured verifier and the post-check hook
// both run, side by side when the pool has two workers (they share
// nothing but their read-only inputs), and both must pass. The verifier
// is the first task, so a single worker runs it first, and its error
// wins when both fail.
func (r *runner) maybeVerify(net *graph.Network, res *routing.Result, report *EventReport) error {
	start := time.Now()
	var verr, perr error
	var tasks []func()
	if r.opts.Verify {
		tasks = append(tasks, func() { verr = r.check(net, res) })
	}
	if r.opts.PostCheck != nil {
		tasks = append(tasks, func() { perr = r.opts.PostCheck(net, res) })
	}
	runPooled(r.opts.workers(), len(tasks), func(i int) { tasks[i]() })
	report.CertifyTime += time.Since(start)
	if verr != nil {
		return fmt.Errorf("invalid: %w", verr)
	}
	if perr != nil {
		return fmt.Errorf("rejected by post-check: %w", perr)
	}
	report.Verified = r.opts.Verify
	report.PostChecked = r.opts.PostCheck != nil
	return nil
}

// resultWith rebinds an old result to a repaired table; layer assignment
// and VC usage are invariants of incremental repair.
func resultWith(old *routing.Result, table *routing.Table) *routing.Result {
	return &routing.Result{
		Algorithm: old.Algorithm,
		Table:     table,
		VCs:       old.VCs,
		DestLayer: old.DestLayer,
	}
}

// runPooled runs n independent tasks on at most workers goroutines.
func runPooled(workers, n int, run func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var next int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}
