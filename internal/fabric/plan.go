package fabric

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/routing/verify"
)

// layerJob is one virtual layer's share of an event repair: the
// destinations to re-route and the layer's surviving destinations whose
// dependencies seed the repair CDG. Nue routes each layer inside its own
// complete CDG, so the jobs of one event own disjoint table columns and
// any subset may run concurrently; each job's output depends only on its
// own inputs, never on scheduling, which is why the table is the same at
// every worker count.
type layerJob struct {
	layer  uint8
	repair []graph.NodeID
	kept   []graph.NodeID
}

// planJobs groups the destinations of one event by virtual layer, in
// table destination order (deterministic): affected[i] marks the i-th
// destination of the table for repair. It returns the jobs with
// something to repair in ascending layer order, built in the runner's
// kept slices, valid until the next call.
func (r *runner) planJobs(old *Snapshot, affected []bool) []layerJob {
	oldRes := old.Result
	for l := range r.byLayer {
		j := &r.byLayer[l]
		j.repair, j.kept = j.repair[:0], j.kept[:0]
	}
	for i, d := range oldRes.Table.Dests() {
		var l uint8
		if oldRes.DestLayer != nil {
			l = oldRes.DestLayer[i]
		}
		for int(l) >= len(r.byLayer) {
			r.byLayer = append(r.byLayer, layerJob{layer: uint8(len(r.byLayer))})
		}
		j := &r.byLayer[l]
		if affected[i] {
			j.repair = append(j.repair, d)
		} else {
			j.kept = append(j.kept, d)
		}
	}
	r.jobs = r.jobs[:0]
	for _, j := range r.byLayer {
		if len(j.repair) > 0 {
			r.jobs = append(r.jobs, j)
		}
	}
	return r.jobs
}

// runner is the routing-computation half of the Manager: it owns the Nue
// engine, executes planned repairs (with escape-root reuse), and
// verifies/post-checks candidate results. It holds no epoch state and
// publishes nothing. Methods are not safe for concurrent use; the
// Manager serializes events.
type runner struct {
	opts Options
	nue  *core.Nue
	// roots caches each layer's last escape plan. While churn stays
	// outside its tree it is passed back as the repair's Hint, eliding
	// the Brandes betweenness pass that otherwise reruns from scratch on
	// every event (the dominant repair cost on large fabrics). The cache
	// owns its plans: a plan's tree goes back to bfs's free list when
	// the plan is replaced or dropped (dropRoot), and so does the tree
	// of every repair plan the cache does not keep.
	roots map[uint8]core.Plan
	// check is verify.Check; a field so tests can observe when it runs.
	check func(*graph.Network, *routing.Result) error

	// An event's scratch, kept from event to event: the affected mark
	// per destination column, the layer jobs (byLayer indexed by layer,
	// jobs those with something to repair) and their outcomes, the
	// network being repaired or certified with the table being repaired
	// or the candidate being certified, and the two checks' errors (the
	// verifier's, the post-check's). repairJob and certifyJob, the tasks
	// par.For runs over them, are bound once.
	affected   []bool
	byLayer    []layerJob
	jobs       []layerJob
	outs       []jobOutcome
	net        *graph.Network
	table      *routing.Table
	candidate  *routing.Result
	errs       [2]error
	repairJob  func(i int)
	certifyJob func(i int)
}

// newRunner builds the computation layer for the manager's (defaulted)
// options.
func newRunner(opts Options) *runner {
	nopts := core.DefaultOptions()
	nopts.Seed = opts.Seed
	nopts.Workers = opts.Workers
	nopts.Telemetry = opts.EngineTelemetry
	r := &runner{
		opts:  opts,
		nue:   core.New(nopts),
		roots: make(map[uint8]core.Plan),
		check: func(net *graph.Network, res *routing.Result) error {
			_, err := verify.Check(net, res, nil)
			return err
		},
	}
	r.repairJob = func(i int) { r.outs[i] = r.runJob(r.net, r.table, r.jobs[i]) }
	r.certifyJob = func(i int) {
		// The verifier is the first task, when there is one.
		if i == 0 && r.opts.Verify {
			r.errs[0] = r.check(r.net, r.candidate)
		} else {
			r.errs[1] = r.opts.PostCheck(r.net, r.candidate)
		}
	}
	return r
}

// routeFull recomputes the whole fabric from scratch on net. The root
// cache is dropped: full routings pick their own roots internally.
func (r *runner) routeFull(net *graph.Network) (*routing.Result, error) {
	dests := destinations(net)
	if len(dests) == 0 {
		return nil, errors.New("fabric: network has no destinations")
	}
	r.dropRoots()
	return r.nue.Route(net, dests, r.opts.MaxVCs)
}

// setRoot caches p as layer l's plan, releasing the tree of the plan it
// replaces.
func (r *runner) setRoot(l uint8, p core.Plan) {
	r.dropRoot(l)
	r.roots[l] = p
}

// dropRoot removes layer l's cached plan, if any, and releases its tree.
func (r *runner) dropRoot(l uint8) {
	if p, ok := r.roots[l]; ok {
		p.Tree.Release()
		delete(r.roots, l)
	}
}

// dropRoots empties the root cache, releasing every tree.
func (r *runner) dropRoots() {
	for l := range r.roots {
		r.dropRoot(l)
	}
}

// invalidateRoots drops cached escape roots the changed channels can no
// longer vouch for: every cache entry whose tree contains a newly failed
// channel, and — conservatively — every entry when a channel was
// restored (a join can reconnect a component the old tree never spanned).
func (r *runner) invalidateRoots(newNet *graph.Network, changed []graph.ChannelID) {
	for _, c := range changed {
		if !newNet.Channel(c).Failed {
			r.dropRoots()
			return
		}
	}
	for l, p := range r.roots {
		for _, c := range changed {
			if p.Tree.IsTreeChannel(c) {
				r.dropRoot(l)
				break
			}
		}
	}
}

// jobOutcome collects one layer job's result for report aggregation and
// root-cache write-back.
type jobOutcome struct {
	stats core.RepairStats
	err   error
}

// runJob executes one planned layer job against table (bound to newNet):
// one core.RepairLayer call, which widens to the whole layer by itself
// when the incremental repair is infeasible. The layer's cached plan, if
// any, is passed as its Hint. Safe to call concurrently for distinct jobs
// of one plan (the root cache is only read here; write-back happens in
// retable after the barrier).
func (r *runner) runJob(newNet *graph.Network, table *routing.Table, job layerJob) jobOutcome {
	req := core.RepairRequest{
		Net:    newNet,
		Table:  table,
		Repair: job.repair,
		Kept:   job.kept,
		Hint:   r.roots[job.layer],
	}
	stats, err := r.nue.RepairLayer(req)
	return jobOutcome{stats, err}
}

// retable computes the post-event routing for newNet: the incremental
// per-layer repair, its layer jobs run by par.For on Options.Workers
// goroutines, falling back to a full recompute when a layer fails or the
// combined result does not verify. This is pure computation — the caller
// owns mutation and publication.
func (r *runner) retable(old *Snapshot, newNet *graph.Network, changed []graph.ChannelID,
	report *EventReport) (*routing.Result, error) {

	if r.opts.FullRecompute {
		return r.fullRecompute(newNet, report)
	}
	oldRes := old.Result
	r.invalidateRoots(newNet, changed)

	// The published table is read only: the ID spaces of the two
	// networks are shared, so its rows answer for newNet too.
	r.affected = affectedDests(r.affected, newNet, oldRes.Table, changed)
	if !slices.Contains(r.affected, true) {
		// Topology changed but no unicast route is impacted (e.g. failing
		// an unused link): republish the same entries on the new network,
		// shared, not copied.
		res := resultWith(oldRes, oldRes.Table.Rebind(newNet))
		if err := r.maybeVerify(newNet, res, report); err != nil {
			return nil, err
		}
		return res, nil
	}

	// The layer jobs write disjoint columns of one eager clone; a lazy
	// copy would race on its first write.
	table := oldRes.Table.Clone(newNet)
	jobs := r.planJobs(old, r.affected)
	outs := slices.Grow(r.outs[:0], len(jobs))[:len(jobs)]
	r.outs, r.net, r.table = outs, newNet, table
	barrier := time.Now()
	par.For(par.Workers(r.opts.Workers), len(jobs), r.repairJob)
	report.RepairTime = time.Since(barrier)
	// The kept scratch holds on to no plan, network or table.
	r.net, r.table = nil, nil
	defer clear(outs)
	for i, j := range jobs {
		out := outs[i]
		if out.err != nil {
			// Last resort: re-route the whole fabric, which drops the
			// cache; the plans of this job and the ones after it are not
			// kept either.
			for _, o := range outs[i:] {
				o.stats.Plan.Tree.Release()
			}
			res, err := r.fullRecompute(newNet, report)
			if err != nil {
				return nil, fmt.Errorf("layer %d repair failed (%v) and full recompute failed: %w", j.layer, out.err, err)
			}
			return res, nil
		}
		if out.stats.Plan.Tree != nil {
			r.setRoot(j.layer, out.stats.Plan)
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
	if err := r.maybeVerify(newNet, res, report); err != nil {
		// Defense in depth: an invalid incremental transition is replaced
		// by a verified full recompute.
		full, ferr := r.fullRecompute(newNet, report)
		if ferr != nil {
			return nil, fmt.Errorf("incremental transition refused (%v) and full recompute failed: %w", err, ferr)
		}
		return full, nil
	}
	return res, nil
}

// fullRecompute routes the fabric from scratch and verifies if required.
func (r *runner) fullRecompute(newNet *graph.Network, report *EventReport) (*routing.Result, error) {
	res, err := r.routeFull(newNet)
	if err != nil {
		return nil, err
	}
	report.FullRecompute = true
	report.RepairedDests = report.TotalDests
	if err := r.maybeVerify(newNet, res, report); err != nil {
		return nil, err
	}
	return res, nil
}

// maybeVerify certifies a candidate (network, result) pair, epoch 0 and
// every later one alike: the configured verifier and the post-check hook
// both run through par.For, side by side when Workers allows two (they
// share nothing but their read-only inputs), and both must pass. The
// verifier is the first task, so a single worker runs it first, and its
// error wins when both fail.
func (r *runner) maybeVerify(net *graph.Network, res *routing.Result, report *EventReport) error {
	start := time.Now()
	tasks := 0
	if r.opts.Verify {
		tasks++
	}
	if r.opts.PostCheck != nil {
		tasks++
	}
	r.net, r.candidate = net, res
	par.For(par.Workers(r.opts.Workers), tasks, r.certifyJob)
	verr, perr := r.errs[0], r.errs[1]
	r.net, r.candidate, r.errs = nil, nil, [2]error{}
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
