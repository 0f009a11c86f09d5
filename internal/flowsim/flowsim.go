// Package flowsim is a flow-level max-min-fair fluid simulator: the
// fast path for evaluating routing tables under millions of concurrent
// flows, cross-validated against the flit-level model (internal/sim) on
// small cases.
//
// Each flow's path comes from routing.Walk, the production definition
// of a valid path (explicit PairPath overrides, destination-based next
// hops, from-node and failed-channel validation, loop detection).
// Rates are progressive-filling max-min allocations over per-channel
// capacities: repeatedly freeze the bottleneck link's flows at its fair
// share, release their demand from the rest of their path, and repeat
// until every flow has a rate. Time advances event-by-event (flow
// finish / flow arrival); Config.Quantum coalesces rate recomputation
// into windows so steady states with millions of flows stay tractable.
//
// Determinism contract (same discipline as the PR 2 engine
// parallelism): results are bit-identical for every Config.Workers
// value. The sharded passes — path walking, per-link demand
// aggregation, bucket layout, finish scanning — use only
// partition-invariant reductions (integer sums, float min, offsets
// computed from per-worker counts over contiguous flow ranges); every
// floating-point accumulation runs in a fixed single-threaded order.
package flowsim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config tunes a fluid-simulation run. The zero value is usable: one
// worker-count-independent run at capacity 1.0 with exact event-by-event
// recomputation.
type Config struct {
	// Workers shards the rate computation (0 = GOMAXPROCS). Results are
	// bit-identical for every value.
	Workers int
	// Capacity is the per-channel bandwidth in bytes per tick
	// (default 1.0). Every channel — including terminal injection and
	// ejection links, which model NIC serialization — has the same
	// capacity.
	Capacity float64
	// Quantum coalesces rate recomputation: rates recompute at most
	// once per Quantum ticks, and flows finishing inside a window do so
	// at the rates frozen at its start (their freed bandwidth
	// redistributes at the next boundary). 0 recomputes at every
	// distinct event time — the exact fluid model, used by the
	// cross-validation suite; large steady-state runs set a window.
	Quantum int64
	// MaxTicks aborts runs exceeding this simulated time (0 = no cap).
	MaxTicks float64
	// TenantNames labels Result.PerTenant rows (index = Flow.Tenant);
	// missing names render as "tenant<N>".
	TenantNames []string
	// Telemetry, when non-nil, receives workload_* run counters.
	// Observation-only; nil records nothing.
	Telemetry *telemetry.WorkloadMetrics
}

// TenantStats aggregates one tenant's flows.
type TenantStats struct {
	Tenant   int
	Name     string
	Flows    int
	Finished int
	// DeliveredBytes sums bytes moved (partial transfers included).
	DeliveredBytes int64
	// Throughput is DeliveredBytes / Result.Makespan.
	Throughput float64
	// Flow-completion-time percentiles over finished flows, in ticks.
	FCTAvg, FCTP50, FCTP99, FCTMax float64
}

// Result summarizes a fluid-simulation run.
type Result struct {
	// Makespan is the last flow-finish time (or the MaxTicks cap), in
	// ticks.
	Makespan float64
	// FlowsTotal counts offered flows; FlowsSkipped those dropped
	// before simulation (src == dst, or a disconnected endpoint);
	// FlowsFinished completed transfers; FlowsUnfinished flows still
	// active when a MaxTicks run was cut.
	FlowsTotal, FlowsSkipped, FlowsFinished, FlowsUnfinished int
	// Events counts processed arrivals + finishes; Recomputes the
	// progressive-filling rate recomputations.
	Events, Recomputes int64
	// DeliveredBytes sums bytes moved across all flows.
	DeliveredBytes int64
	// AggThroughput is DeliveredBytes / Makespan (bytes per tick).
	AggThroughput float64
	TimedOut      bool
	PerTenant     []TenantStats
	// LinkBytes[c] is the byte total channel c carried — the
	// link-utilization heatmap data. LinkUtil[c] normalizes by
	// Capacity x Makespan.
	LinkBytes []float64
	LinkUtil  []float64
	// AvgLinkUtilization / MaxLinkUtilization cover the
	// switch-to-switch channels that carried traffic (the flit
	// simulator's semantics, for cross-validation).
	AvgLinkUtilization, MaxLinkUtilization float64
}

// WalkError reports the first flow whose path routing.Walk refused: the
// fluid model's equivalent of the flit simulator's wedged run — a
// mis-routed table is flagged, never silently simulated. Err is the
// *routing.WalkError.
type WalkError struct {
	FlowIndex int
	Err       error
}

func (e *WalkError) Error() string {
	return fmt.Sprintf("flowsim: flow %d: %v", e.FlowIndex, e.Err)
}

func (e *WalkError) Unwrap() error { return e.Err }

// WalkFlowPath is routing.Walk under the name the benchmark replays a
// run's path pass by.
func WalkFlowPath(net *graph.Network, res *routing.Result, src, dst graph.NodeID, buf []graph.ChannelID) ([]graph.ChannelID, error) {
	return routing.Walk(net, res, src, dst, buf)
}

const inf = math.MaxFloat64

// shareFloor is the smallest admissible fair share: a numeric backstop
// so floating-point residue on a nearly-exhausted link can never freeze
// a flow at a zero or negative rate (which would never finish).
const shareFloor = 1e-12

// sim is the run state.
type sim struct {
	net   *graph.Network
	flows []workload.Flow
	cfg   Config
	w     int // resolved worker count

	// Flattened per-flow paths: path(f) = pathChan[pathOff[f]:pathOff[f+1]].
	// Skipped flows have empty paths.
	pathOff  []int64
	pathChan []graph.ChannelID

	rem      []float64 // bytes remaining (valid at recompute boundaries)
	rate     []float64
	finishAt []float64 // absolute finish tick under current rates; inf before rates assign
	finished []float64 // finish tick, -1 while unfinished
	skipped  []bool

	order  []int32 // flow indices sorted by (Start, index)
	active []int32 // admitted, unfinished flows (deterministic order)

	// Rate-computation scratch (reused across recomputes).
	linkN    []int32   // unfrozen-flow count per channel
	linkR    []float64 // remaining capacity per channel
	cntW     [][]int32 // per-worker per-channel counts
	bucket   []int32   // flows grouped by channel
	bktOff   []int64   // per-channel bucket offsets
	bktPos   [][]int64 // per-worker fill cursors
	heap     []heapEnt // lazy bottleneck heap
	frozenAt []int64   // recompute epoch the flow froze in
	epoch    int64

	events     int64
	recomputes int64
	maxActive  int
}

type heapEnt struct {
	share float64
	link  int32
}

// Run simulates the delivery of flows under the routing result and
// returns throughput, latency-percentile and link-utilization data. A
// flow whose table walk fails (loop, missing route, malformed entry)
// aborts the run with a *WalkError.
func Run(net *graph.Network, res *routing.Result, flows []workload.Flow, cfg Config) (Result, error) {
	startWall := time.Now()
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1.0
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > 64 {
		w = 64
	}
	s := &sim{net: net, flows: flows, cfg: cfg, w: w}
	if err := s.walkPaths(res); err != nil {
		return Result{}, err
	}
	s.initState()
	timedOut := s.loop()
	r := s.buildResult(timedOut)
	s.reportTelemetry(&r, time.Since(startWall))
	return r, nil
}

// walkPaths resolves every flow's channel path (two sharded passes:
// lengths, then a prefix-summed fill). The first failing flow — by flow
// index, independent of the worker count — aborts the run.
func (s *sim) walkPaths(res *routing.Result) error {
	f := len(s.flows)
	s.pathOff = make([]int64, f+1)
	s.skipped = make([]bool, f)
	errs := make([]*WalkError, s.w)
	lens := make([]int32, f)
	s.shard(f, func(wk, lo, hi int) {
		var buf []graph.ChannelID
		for i := lo; i < hi; i++ {
			if errs[wk] != nil {
				return
			}
			fl := s.flows[i]
			if fl.Src == fl.Dst || s.net.Degree(fl.Src) == 0 || s.net.Degree(fl.Dst) == 0 {
				s.skipped[i] = true
				continue
			}
			p, err := routing.Walk(s.net, res, fl.Src, fl.Dst, buf)
			if err != nil {
				errs[wk] = &WalkError{FlowIndex: i, Err: err}
				return
			}
			buf = p
			lens[i] = int32(len(p))
		}
	})
	// Workers stop at their first error; the globally first flow error
	// is deterministic because ranges are contiguous and ascending.
	var first *WalkError
	for _, e := range errs {
		if e != nil && (first == nil || e.FlowIndex < first.FlowIndex) {
			first = e
		}
	}
	if first != nil {
		return first
	}
	total := int64(0)
	for i := 0; i < f; i++ {
		s.pathOff[i] = total
		total += int64(lens[i])
	}
	s.pathOff[f] = total
	s.pathChan = make([]graph.ChannelID, total)
	s.shard(f, func(wk, lo, hi int) {
		var buf []graph.ChannelID
		for i := lo; i < hi; i++ {
			if s.skipped[i] {
				continue
			}
			p, _ := routing.Walk(s.net, res, s.flows[i].Src, s.flows[i].Dst, buf)
			buf = p
			copy(s.pathChan[s.pathOff[i]:s.pathOff[i+1]], p)
		}
	})
	return nil
}

func (s *sim) initState() {
	f := len(s.flows)
	l := s.net.NumChannels()
	s.rem = make([]float64, f)
	s.rate = make([]float64, f)
	s.finishAt = make([]float64, f)
	s.finished = make([]float64, f)
	for i := range s.finished {
		s.finished[i] = -1
		s.finishAt[i] = inf
		// Full bytes outstanding until admission, so a run cut before a
		// flow's arrival reports zero delivered bytes for it.
		s.rem[i] = float64(s.flows[i].Bytes)
	}
	s.order = make([]int32, 0, f)
	for i := 0; i < f; i++ {
		if !s.skipped[i] {
			s.order = append(s.order, int32(i))
		}
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return s.flows[s.order[a]].Start < s.flows[s.order[b]].Start
	})
	s.linkN = make([]int32, l)
	s.linkR = make([]float64, l)
	s.cntW = make([][]int32, s.w)
	s.bktPos = make([][]int64, s.w)
	for w := 0; w < s.w; w++ {
		s.cntW[w] = make([]int32, l)
		s.bktPos[w] = make([]int64, l)
	}
	s.bktOff = make([]int64, l+1)
	s.bucket = make([]int32, 0)
	s.frozenAt = make([]int64, f)
	for i := range s.frozenAt {
		s.frozenAt[i] = -1
	}
}

// shard runs fn over contiguous ranges of [0, n). Range boundaries
// depend on the worker count, so fn must only perform
// partition-invariant work (see the package determinism contract).
func (s *sim) shard(n int, fn func(worker, lo, hi int)) {
	w := s.w
	if n < 2048 || w == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for k := 0; k < w; k++ {
		lo := k * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			fn(k, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
}

// loop is the event loop: admit arrivals, recompute max-min rates, and
// advance to the next window boundary (or exact event time when
// Quantum is 0), finishing flows as their fluid transfers complete.
func (s *sim) loop() (timedOut bool) {
	t := 0.0
	ai := 0
	admit := func(upTo float64) {
		for ai < len(s.order) && float64(s.flows[s.order[ai]].Start) <= upTo {
			fi := s.order[ai]
			s.rem[fi] = float64(s.flows[fi].Bytes)
			s.rate[fi] = 0
			s.finishAt[fi] = inf
			s.active = append(s.active, fi)
			ai++
			s.events++
		}
	}
	admit(0)
	if len(s.active) > 0 {
		s.recompute(t)
	}
	for {
		if len(s.active) == 0 {
			if ai >= len(s.order) {
				return false
			}
			t = float64(s.flows[s.order[ai]].Start)
			if s.cfg.MaxTicks > 0 && t > s.cfg.MaxTicks {
				return true
			}
			admit(t)
			s.recompute(t)
			continue
		}
		boundary := t + float64(s.cfg.Quantum)
		nf := s.minFinish()
		na := inf
		if ai < len(s.order) {
			na = float64(s.flows[s.order[ai]].Start)
		}
		first := nf
		if na < first {
			first = na
		}
		if first > boundary {
			// Nothing happens inside the window; snap to the next event
			// instead of spinning through empty quanta.
			boundary = first
		}
		if s.cfg.MaxTicks > 0 && boundary > s.cfg.MaxTicks {
			s.settleAt(s.cfg.MaxTicks)
			return true
		}
		// Finish every flow whose fluid transfer completes in the
		// window, at its own finish time under the window's frozen
		// rates (compaction preserves the deterministic active order).
		kept := s.active[:0]
		for _, fi := range s.active {
			if s.finishAt[fi] <= boundary {
				s.finished[fi] = s.finishAt[fi]
				s.rem[fi] = 0
				s.events++
			} else {
				kept = append(kept, fi)
			}
		}
		s.active = kept
		admit(boundary)
		t = boundary
		if len(s.active) > 0 {
			s.recompute(t)
		}
	}
}

// minFinish returns the earliest finish time over active flows (a
// sharded float-min reduction; exact for any partition).
func (s *sim) minFinish() float64 {
	n := len(s.active)
	mins := make([]float64, s.w)
	for i := range mins {
		mins[i] = inf
	}
	s.shard(n, func(wk, lo, hi int) {
		m := inf
		for i := lo; i < hi; i++ {
			if f := s.finishAt[s.active[i]]; f < m {
				m = f
			}
		}
		mins[wk] = m
	})
	m := inf
	for _, v := range mins {
		if v < m {
			m = v
		}
	}
	return m
}

// settleAt materializes remaining bytes at the cut time for a timed-out
// run, so partial transfers still account their delivered bytes.
func (s *sim) settleAt(t float64) {
	for _, fi := range s.active {
		if s.rate[fi] <= 0 {
			continue
		}
		rem := (s.finishAt[fi] - t) * s.rate[fi]
		if rem < 0 {
			rem = 0
		}
		if b := float64(s.flows[fi].Bytes); rem > b {
			rem = b
		}
		s.rem[fi] = rem
	}
}

// recompute runs the progressive-filling max-min allocation at time t:
// materialize remaining bytes, aggregate per-link demand (sharded),
// group flows by link (sharded fill into a deterministic layout), then
// freeze bottleneck links in ascending fair-share order via a lazy
// min-heap. The freeze loop is single-threaded in a fixed order, so
// every floating-point subtraction happens identically for any worker
// count.
func (s *sim) recompute(t float64) {
	s.recomputes++
	s.epoch++
	if len(s.active) > s.maxActive {
		s.maxActive = len(s.active)
	}
	n := len(s.active)
	// Pass 1 (sharded): materialize rem under the outgoing rates and
	// count per-link unfrozen flows into per-worker arrays.
	for w := 0; w < s.w; w++ {
		clear(s.cntW[w])
	}
	s.shard(n, func(wk, lo, hi int) {
		cnt := s.cntW[wk]
		for i := lo; i < hi; i++ {
			fi := s.active[i]
			if s.rate[fi] > 0 {
				rem := (s.finishAt[fi] - t) * s.rate[fi]
				if rem < 0 {
					rem = 0
				}
				s.rem[fi] = rem
			}
			for _, c := range s.pathChan[s.pathOff[fi]:s.pathOff[fi+1]] {
				cnt[c]++
			}
		}
	})
	// Merge counts; lay out bucket offsets: bucket order is active-list
	// order within each link for every worker count, because worker
	// ranges are contiguous and ascending and each worker's cursor
	// starts after the preceding workers' counts.
	links := s.net.NumChannels()
	total := int64(0)
	for c := 0; c < links; c++ {
		s.bktOff[c] = total
		sum := int32(0)
		for w := 0; w < s.w; w++ {
			s.bktPos[w][c] = total + int64(sum)
			sum += s.cntW[w][c]
		}
		s.linkN[c] = sum
		total += int64(sum)
	}
	s.bktOff[links] = total
	if int64(cap(s.bucket)) < total {
		s.bucket = make([]int32, total)
	}
	s.bucket = s.bucket[:total]
	// Pass 2 (sharded): fill the buckets.
	s.shard(n, func(wk, lo, hi int) {
		pos := s.bktPos[wk]
		for i := lo; i < hi; i++ {
			fi := s.active[i]
			for _, c := range s.pathChan[s.pathOff[fi]:s.pathOff[fi+1]] {
				s.bucket[pos[c]] = fi
				pos[c]++
			}
		}
	})
	// Progressive filling (single-threaded, deterministic order).
	s.heap = s.heap[:0]
	for c := 0; c < links; c++ {
		if s.linkN[c] > 0 {
			s.linkR[c] = s.cfg.Capacity
			s.heapPush(heapEnt{share: s.cfg.Capacity / float64(s.linkN[c]), link: int32(c)})
		}
	}
	for len(s.heap) > 0 {
		e := s.heapPop()
		c := e.link
		if s.linkN[c] == 0 {
			continue
		}
		cur := s.linkR[c] / float64(s.linkN[c])
		if cur > e.share {
			// Stale entry: the link's share rose while other links
			// froze (per-link shares are monotone under progressive
			// filling); requeue at its current value.
			s.heapPush(heapEnt{share: cur, link: c})
			continue
		}
		share := cur
		if share < shareFloor {
			share = shareFloor
		}
		// c is the bottleneck: freeze its unfrozen flows at the fair
		// share, releasing their demand along their paths.
		for _, fi := range s.bucket[s.bktOff[c]:s.bktOff[c+1]] {
			if s.frozenAt[fi] == s.epoch {
				continue
			}
			s.frozenAt[fi] = s.epoch
			s.rate[fi] = share
			s.finishAt[fi] = t + s.rem[fi]/share
			for _, m := range s.pathChan[s.pathOff[fi]:s.pathOff[fi+1]] {
				s.linkR[m] -= share
				s.linkN[m]--
			}
		}
	}
	if tm := s.cfg.Telemetry; tm != nil {
		tm.FlowsActive.SetMax(int64(n))
	}
}

func (s *sim) heapPush(e heapEnt) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(s.heap[i], s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *sim) heapPop() heapEnt {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && heapLess(h[l], h[m]) {
			m = l
		}
		if r < last && heapLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// heapLess orders by (share, link): the link-ID tie-break keeps the
// bottleneck order deterministic when shares collide exactly.
func heapLess(a, b heapEnt) bool {
	if a.share != b.share {
		return a.share < b.share
	}
	return a.link < b.link
}

// buildResult derives the run summary: delivered bytes, per-tenant
// percentiles and the link heatmap. All derivations are guarded against
// zero-progress runs (no NaN from an empty or instantly-cut workload).
func (s *sim) buildResult(timedOut bool) Result {
	r := Result{
		FlowsTotal: len(s.flows),
		Events:     s.events,
		Recomputes: s.recomputes,
		TimedOut:   timedOut,
	}
	links := s.net.NumChannels()
	r.LinkBytes = make([]float64, links)
	r.LinkUtil = make([]float64, links)

	maxTenant := 0
	for i := range s.flows {
		if tn := int(s.flows[i].Tenant); tn > maxTenant {
			maxTenant = tn
		}
	}
	stats := make([]TenantStats, maxTenant+1)
	fcts := make([][]float64, maxTenant+1)
	delivered := make([]float64, len(s.flows))
	for i := range s.flows {
		tn := int(s.flows[i].Tenant)
		st := &stats[tn]
		if s.skipped[i] {
			r.FlowsSkipped++
			continue
		}
		st.Flows++
		var d float64
		if s.finished[i] >= 0 {
			r.FlowsFinished++
			st.Finished++
			d = float64(s.flows[i].Bytes)
			if s.finished[i] > r.Makespan {
				r.Makespan = s.finished[i]
			}
			fcts[tn] = append(fcts[tn], s.finished[i]-float64(s.flows[i].Start))
		} else {
			r.FlowsUnfinished++
			d = float64(s.flows[i].Bytes) - s.rem[i]
			if d < 0 {
				d = 0
			}
		}
		delivered[i] = d
		st.DeliveredBytes += int64(d)
		r.DeliveredBytes += int64(d)
	}
	if timedOut && s.cfg.MaxTicks > 0 {
		r.Makespan = s.cfg.MaxTicks
	}
	// A flow moves every delivered byte across every channel of its
	// path, so per-link byte totals are exact regardless of the rate
	// trajectory.
	for i := range s.flows {
		if delivered[i] == 0 {
			continue
		}
		for _, c := range s.pathChan[s.pathOff[i]:s.pathOff[i+1]] {
			r.LinkBytes[c] += delivered[i]
		}
	}
	if r.Makespan > 0 {
		r.AggThroughput = float64(r.DeliveredBytes) / r.Makespan
		used, sum, max := 0, 0.0, 0.0
		for c := 0; c < links; c++ {
			r.LinkUtil[c] = r.LinkBytes[c] / (s.cfg.Capacity * r.Makespan)
			ch := s.net.Channel(graph.ChannelID(c))
			if r.LinkBytes[c] == 0 || !s.net.IsSwitch(ch.From) || !s.net.IsSwitch(ch.To) {
				continue
			}
			used++
			sum += r.LinkUtil[c]
			if r.LinkUtil[c] > max {
				max = r.LinkUtil[c]
			}
		}
		if used > 0 {
			r.AvgLinkUtilization = sum / float64(used)
			r.MaxLinkUtilization = max
		}
	}
	for tn := range stats {
		st := &stats[tn]
		st.Tenant = tn
		if tn < len(s.cfg.TenantNames) && s.cfg.TenantNames[tn] != "" {
			st.Name = s.cfg.TenantNames[tn]
		} else {
			st.Name = fmt.Sprintf("tenant%d", tn)
		}
		if r.Makespan > 0 {
			st.Throughput = float64(st.DeliveredBytes) / r.Makespan
		}
		f := fcts[tn]
		if len(f) == 0 {
			continue
		}
		sort.Float64s(f)
		sum := 0.0
		for _, v := range f {
			sum += v
		}
		st.FCTAvg = sum / float64(len(f))
		st.FCTP50 = f[(len(f)-1)*50/100]
		st.FCTP99 = f[(len(f)-1)*99/100]
		st.FCTMax = f[len(f)-1]
	}
	// Drop all-empty tenant rows only at the tail (dense indexing keeps
	// Flow.Tenant a direct index).
	r.PerTenant = stats
	return r
}

// reportTelemetry publishes the finished run into the telemetry bundle
// (one batch of atomic adds; no per-event overhead).
func (s *sim) reportTelemetry(r *Result, wall time.Duration) {
	tm := s.cfg.Telemetry
	if tm == nil {
		return
	}
	tm.Runs.Inc()
	tm.FlowsFinished.Add(int64(r.FlowsFinished))
	tm.FlowsSkipped.Add(int64(r.FlowsSkipped))
	tm.EventsProcessed.Add(r.Events)
	tm.RateRecomputes.Add(r.Recomputes)
	tm.RunNanos.Add(wall.Nanoseconds())
	tm.FlowsActive.SetMax(int64(s.maxActive))
	if r.TimedOut {
		tm.Timeouts.Inc()
	}
	tm.Events.Emit("flowsim_run", map[string]int64{
		"flows":          int64(r.FlowsTotal),
		"finished":       int64(r.FlowsFinished),
		"events":         r.Events,
		"recomputes":     r.Recomputes,
		"makespan_ticks": int64(r.Makespan),
		"timed_out":      b2i(r.TimedOut),
	})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
