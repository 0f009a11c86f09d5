package fabric

import (
	"errors"
	"fmt"
	"sort"
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

// planJobs groups the affected destinations of one event by virtual
// layer, in table destination order (deterministic).
func planJobs(old *Snapshot, affected map[graph.NodeID]struct{}) []layerJob {
	oldRes := old.Result
	dests := oldRes.Table.Dests()
	byLayer := make(map[uint8]*layerJob)
	var layers []uint8
	for i, d := range dests {
		var l uint8
		if oldRes.DestLayer != nil {
			l = oldRes.DestLayer[i]
		}
		j := byLayer[l]
		if j == nil {
			j = &layerJob{layer: l}
			byLayer[l] = j
			layers = append(layers, l)
		}
		if _, ok := affected[d]; ok {
			j.repair = append(j.repair, d)
		} else {
			j.kept = append(j.kept, d)
		}
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i] < layers[j] })
	jobs := make([]layerJob, 0, len(layers))
	for _, l := range layers {
		if j := byLayer[l]; len(j.repair) > 0 {
			jobs = append(jobs, *j)
		}
	}
	return jobs
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
	// every event (the dominant repair cost on large fabrics).
	roots map[uint8]core.Plan
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
		roots: make(map[uint8]core.Plan),
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
	for l, p := range r.roots {
		for _, c := range changed {
			if p.Tree.IsTreeChannel(c) {
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
	affected := affectedDests(newNet, oldRes.Table, changed)
	if len(affected) == 0 {
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
	jobs := planJobs(old, affected)
	outs := make([]jobOutcome, len(jobs))
	barrier := time.Now()
	par.For(par.Workers(r.opts.Workers), len(jobs), func(i int) {
		outs[i] = r.runJob(newNet, table, jobs[i])
	})
	report.RepairTime = time.Since(barrier)
	for i, j := range jobs {
		out := outs[i]
		if out.err != nil {
			// Last resort: re-route the whole fabric.
			res, err := r.fullRecompute(newNet, report)
			if err != nil {
				return nil, fmt.Errorf("layer %d repair failed (%v) and full recompute failed: %w", j.layer, out.err, err)
			}
			return res, nil
		}
		if out.stats.Plan.Tree != nil {
			r.roots[j.layer] = out.stats.Plan
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
	var verr, perr error
	var tasks []func()
	if r.opts.Verify {
		tasks = append(tasks, func() { verr = r.check(net, res) })
	}
	if r.opts.PostCheck != nil {
		tasks = append(tasks, func() { perr = r.opts.PostCheck(net, res) })
	}
	par.For(par.Workers(r.opts.Workers), len(tasks), func(i int) { tasks[i]() })
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
