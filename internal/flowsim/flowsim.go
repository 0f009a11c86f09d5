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
// What a recompute needs of the link structure is kept, not rebuilt:
// the number of active flows on each channel follows every admission
// and finish, and the link -> flows buckets are laid out over all
// unfinished flows in admission order — the not yet admitted included —
// and laid out again only once half of those flows have finished. The
// active flows are always a subsequence of that order, so a bucket
// read through the "active and unfrozen" byte each flow carries lists
// its link's flows in active-list order, whatever has finished or
// arrived since the layout.
//
// A run is one goroutine. The freeze loop of a recompute is most of a
// run and serial by contract — the order of its floating-point
// subtractions is part of a Result — and fanning the passes around it
// out over two cores measured 0.99–1.03x for 12 MB more an op (DESIGN
// §17 has the command).
package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/freelist"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config tunes a fluid-simulation run. The zero value is usable: exact
// event-by-event recomputation, no cap on simulated time.
type Config struct {
	// Workers is not read: a run is single-threaded whatever it holds.
	// The field stays only because bench/ still sets it.
	Workers int
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
	// capacity x Makespan.
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

// FlowError reports the first flow that is not a transfer on this
// network: an endpoint that is not one of its nodes (a trace recorded on
// another topology) or a negative size.
type FlowError struct {
	FlowIndex int
	Flow      workload.Flow
	Reason    string
}

func (e *FlowError) Error() string {
	return fmt.Sprintf("flowsim: flow %d (%d -> %d, %d bytes): %s", e.FlowIndex, e.Flow.Src, e.Flow.Dst, e.Flow.Bytes, e.Reason)
}

// WalkFlowPath is routing.Walk under the name the benchmark replays a
// run's path pass by.
func WalkFlowPath(net *graph.Network, res *routing.Result, src, dst graph.NodeID, buf []graph.ChannelID) ([]graph.ChannelID, error) {
	return routing.Walk(net, res, src, dst, buf)
}

const inf = math.MaxFloat64

// capacity is the bandwidth of every channel in bytes per tick, terminal
// injection and ejection links — which model NIC serialization —
// included.
const capacity = 1.0

// shareFloor is the smallest admissible fair share: a numeric backstop
// so floating-point residue on a nearly-exhausted link can never freeze
// a flow at a zero or negative rate (which would never finish).
const shareFloor = 1e-12

// Per-flow state byte: the one test the freeze loop makes of a bucket
// entry.
const (
	flowIdle     = iota // not admitted yet, or finished
	flowUnfrozen        // active, no rate yet in this recompute
	flowFrozen          // active, rate assigned in this recompute
)

// sim is the run state. Only what Run returns is allocated per run;
// every array below is drawn from runStates and regrown, never shrunk.
type sim struct {
	net   *graph.Network
	flows []workload.Flow
	cfg   Config

	// Flattened per-flow paths: path(f) = pathChan[pathOff[f]:pathOff[f+1]].
	// Skipped flows have empty paths.
	pathOff  []int64
	pathChan []graph.ChannelID
	walkBuf  []graph.ChannelID // routing.Walk's buffer

	rem      []float64 // bytes remaining (valid at recompute boundaries)
	rate     []float64
	finishAt []float64 // absolute finish tick under current rates; inf before rates assign
	finished []float64 // finish tick, -1 while unfinished
	skipped  []bool
	state    []uint8 // flowIdle, flowUnfrozen or flowFrozen

	order  []int32 // flows unfinished at the last layout, sorted by (Start, index)
	next   int     // order[next:] are not admitted yet
	active []int32 // admitted, unfinished flows: a subsequence of order[:next]

	// Link structure kept across recomputes. linkLive follows every
	// admission and finish. The buckets group the flows of order by
	// channel, each bucket in order's order; entries of flows that are
	// idle now are skipped, not removed.
	linkLive []int32 // active flows per channel
	bucket   []int32 // flows grouped by channel
	bktOff   []int64 // per-channel bucket offsets; bktOff[c+1] is layout's fill cursor of c

	// Rate-computation scratch (reused across recomputes).
	linkN []int32   // unfrozen-flow count per channel
	linkR []float64 // remaining capacity per channel
	heap  []heapEnt // lazy bottleneck heap

	// buildResult's scratch: finished flows per tenant, and their
	// completion times, one slice of fct per tenant.
	tenantFin []int
	tenantFCT [][]float64
	fct       []float64

	events     int64
	recomputes int64
	maxActive  int
	layouts    int   // layout calls
	walks      int64 // routing.Walk calls
}

type heapEnt struct {
	share float64
	link  int32
}

// Run simulates the delivery of flows under the routing result and
// returns throughput, latency-percentile and link-utilization data. A
// flow that is not a transfer on net (endpoint out of range, negative
// size) aborts the run with a *FlowError, one whose table walk fails
// (loop, missing route, malformed entry) with a *WalkError; of several
// such flows the one with the lowest index is reported.
func Run(net *graph.Network, res *routing.Result, flows []workload.Flow, cfg Config) (Result, error) {
	s := newSim(net, flows, cfg)
	defer s.release()
	return s.run(res)
}

// runStates recycles run states between runs: a run's per-flow and
// per-channel arrays are scratch of the same shape every time, and a
// state kept here serves the next run without a new allocation once it
// is as large. A kept state is the size of the largest run it served.
var runStates freelist.List[sim]

// newSim draws a run state from runStates, or makes one.
func newSim(net *graph.Network, flows []workload.Flow, cfg Config) *sim {
	s := runStates.Get()
	s.net, s.flows, s.cfg = net, flows, cfg
	s.next = 0
	s.events, s.recomputes, s.maxActive, s.layouts, s.walks = 0, 0, 0, 0, 0
	return s
}

// release hands the state back to runStates. The network, flows and
// config are dropped so that a kept state pins nothing of the run.
func (s *sim) release() {
	s.net, s.flows, s.cfg = nil, nil, Config{}
	runStates.Put(s)
}

func (s *sim) run(res *routing.Result) (Result, error) {
	startWall := time.Now()
	if err := s.walkPaths(res); err != nil {
		return Result{}, err
	}
	s.initState()
	timedOut := s.loop()
	r := s.buildResult(timedOut)
	s.reportTelemetry(&r, time.Since(startWall))
	return r, nil
}

// walkSample is how many flows walkPaths walks before it sizes the path
// arena from their mean path length.
const walkSample = 256

// walkPaths checks every flow and resolves its channel path: one pass
// that walks each flow once, appends the path to the arena and leaves
// its end in pathOff. The first failing flow aborts the run.
func (s *sim) walkPaths(res *routing.Result) error {
	f := len(s.flows)
	nodes := graph.NodeID(s.net.NumNodes())
	s.pathOff = freelist.Grow(s.pathOff, f+1) // pathOff[0] is never written: always 0
	s.skipped = freelist.Grow(s.skipped, f)
	s.pathChan = s.pathChan[:0]
	for i, fl := range s.flows {
		s.pathOff[i+1] = s.pathOff[i]
		switch {
		case fl.Src < 0 || fl.Src >= nodes || fl.Dst < 0 || fl.Dst >= nodes:
			return &FlowError{FlowIndex: i, Flow: fl, Reason: fmt.Sprintf("endpoint outside the network's %d nodes", nodes)}
		case fl.Bytes < 0:
			return &FlowError{FlowIndex: i, Flow: fl, Reason: "negative size"}
		}
		s.skipped[i] = fl.Src == fl.Dst || s.net.Degree(fl.Src) == 0 || s.net.Degree(fl.Dst) == 0
		if s.skipped[i] {
			continue
		}
		if i == walkSample {
			// An eighth above the sample's mean: an arena that falls
			// short regrows by append, at the price of a copy. A kept
			// arena that holds the mean is used as it is.
			est := len(s.pathChan) * (f - i) / walkSample
			if cap(s.pathChan) < len(s.pathChan)+est {
				s.pathChan = append(make([]graph.ChannelID, 0, len(s.pathChan)+est+est/8), s.pathChan...)
			}
		}
		p, err := routing.Walk(s.net, res, fl.Src, fl.Dst, s.walkBuf)
		s.walks++
		if err != nil {
			return &WalkError{FlowIndex: i, Err: err}
		}
		s.walkBuf = p
		s.pathChan = append(s.pathChan, p...)
		s.pathOff[i+1] = int64(len(s.pathChan))
	}
	return nil
}

func (s *sim) path(fi int32) []graph.ChannelID {
	return s.pathChan[s.pathOff[fi]:s.pathOff[fi+1]]
}

func (s *sim) initState() {
	f := len(s.flows)
	l := s.net.NumChannels()
	s.rem = freelist.Grow(s.rem, f)
	s.rate = freelist.Grow(s.rate, f)
	s.finishAt = freelist.Grow(s.finishAt, f)
	s.finished = freelist.Grow(s.finished, f)
	s.state = freelist.Grow(s.state, f)
	clear(s.rate)
	clear(s.state)
	for i := range s.finished {
		s.finished[i] = -1
		s.finishAt[i] = inf
		// Full bytes outstanding until admission, so a run cut before a
		// flow's arrival reports zero delivered bytes for it.
		s.rem[i] = float64(s.flows[i].Bytes)
	}
	s.order = freelist.Grow(s.order, f)[:0]
	for i := 0; i < f; i++ {
		if !s.skipped[i] {
			s.order = append(s.order, int32(i))
		}
	}
	slices.SortStableFunc(s.order, func(a, b int32) int {
		return cmp.Compare(s.flows[a].Start, s.flows[b].Start)
	})
	s.active = freelist.Grow(s.active, len(s.order))[:0]
	s.linkLive = freelist.Grow(s.linkLive, l)
	clear(s.linkLive)
	s.linkN = freelist.Grow(s.linkN, l)
	s.linkR = freelist.Grow(s.linkR, l)
	s.bktOff = freelist.Grow(s.bktOff, l+2)
}

// admit activates the flows that start by upTo.
func (s *sim) admit(upTo float64) {
	for s.next < len(s.order) && float64(s.flows[s.order[s.next]].Start) <= upTo {
		fi := s.order[s.next]
		s.rem[fi] = float64(s.flows[fi].Bytes)
		s.rate[fi] = 0
		s.finishAt[fi] = inf
		s.state[fi] = flowUnfrozen
		for _, c := range s.path(fi) {
			s.linkLive[c]++
		}
		s.active = append(s.active, fi)
		s.next++
		s.events++
	}
}

// loop is the event loop: admit arrivals, recompute max-min rates, and
// advance to the next window boundary (or exact event time when
// Quantum is 0), finishing flows as their fluid transfers complete.
func (s *sim) loop() (timedOut bool) {
	t := 0.0
	s.layout()
	s.admit(0)
	if len(s.active) > 0 {
		s.recompute(t)
	}
	for {
		if len(s.active) == 0 {
			if s.next >= len(s.order) {
				return false
			}
			t = float64(s.flows[s.order[s.next]].Start)
			if s.cfg.MaxTicks > 0 && t > s.cfg.MaxTicks {
				return true
			}
			s.admit(t)
			s.recompute(t)
			continue
		}
		boundary := t + float64(s.cfg.Quantum)
		nf := s.minFinish()
		na := inf
		if s.next < len(s.order) {
			na = float64(s.flows[s.order[s.next]].Start)
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
				s.state[fi] = flowIdle
				for _, c := range s.path(fi) {
					s.linkLive[c]--
				}
				s.events++
			} else {
				kept = append(kept, fi)
			}
		}
		s.active = kept
		s.admit(boundary)
		t = boundary
		if len(s.active) > 0 {
			s.recompute(t)
		}
	}
}

// minFinish returns the earliest finish time over active flows.
func (s *sim) minFinish() float64 {
	m := inf
	for _, fi := range s.active {
		if f := s.finishAt[fi]; f < m {
			m = f
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

// unfinished counts the flows that are active or still to be admitted.
func (s *sim) unfinished() int { return len(s.active) + len(s.order) - s.next }

// layout drops the finished flows from order and groups the rest by
// channel, every bucket in admission order: a count, a prefix sum, a
// fill. The flows still to be admitted are laid out too, so that an
// arrival changes no bucket.
func (s *sim) layout() {
	s.layouts++
	// The unfinished flows of order[:next] are active, in order's order.
	n := copy(s.order, s.active)
	n += copy(s.order[n:], s.order[s.next:])
	s.order, s.next = s.order[:n], len(s.active)
	// Channel c is counted two slots up, so that after the prefix sum
	// off[c+1] is where its bucket starts — and, once it has been c's
	// fill cursor, where the bucket ends: off[c]:off[c+1] is bucket c.
	off := s.bktOff
	clear(off)
	for _, fi := range s.order {
		for _, c := range s.path(fi) {
			off[c+2]++
		}
	}
	for c := 2; c < len(off); c++ {
		off[c] += off[c-1]
	}
	total := off[len(off)-1]
	// Layouts only shrink, so the first allocation serves them all. It
	// leaves an eighth to spare, so that runs of about the same size
	// share one kept array rather than each growing it.
	if int64(cap(s.bucket)) < total {
		s.bucket = make([]int32, total, total+total/8)
	}
	s.bucket = s.bucket[:total]
	for _, fi := range s.order {
		for _, c := range s.path(fi) {
			s.bucket[off[c+1]] = fi
			off[c+1]++
		}
	}
}

// recompute runs the progressive-filling max-min allocation at time t:
// materialize remaining bytes and mark every active flow unfrozen, start
// the per-link counts from linkLive, then freeze bottleneck links in
// ascending fair-share order via a lazy min-heap. A link's remaining
// capacity is a running floating-point difference, so the order in which
// flows freeze is part of the Result.
func (s *sim) recompute(t float64) {
	s.recomputes++
	if len(s.active) > s.maxActive {
		s.maxActive = len(s.active)
	}
	// Dead bucket entries cost the freeze loop a load each: lay the
	// buckets out afresh once fewer than half their flows are left,
	// which a run does at most 1 + log2(flows) times.
	if 2*s.unfinished() < len(s.order) {
		s.layout()
	}
	for _, fi := range s.active {
		if s.rate[fi] > 0 {
			rem := (s.finishAt[fi] - t) * s.rate[fi]
			if rem < 0 {
				rem = 0
			}
			s.rem[fi] = rem
		}
		s.state[fi] = flowUnfrozen
	}
	copy(s.linkN, s.linkLive)
	s.heap = s.heap[:0]
	for c, n := range s.linkN {
		if n > 0 {
			s.linkR[c] = capacity
			s.heapPush(heapEnt{share: capacity / float64(n), link: int32(c)})
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
			if s.state[fi] != flowUnfrozen {
				continue
			}
			s.state[fi] = flowFrozen
			s.rate[fi] = share
			s.finishAt[fi] = t + s.rem[fi]/share
			for _, m := range s.path(fi) {
				s.linkR[m] -= share
				s.linkN[m]--
			}
		}
	}
	if tm := s.cfg.Telemetry; tm != nil {
		tm.FlowsActive.SetMax(int64(len(s.active)))
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

	// Finished flows per tenant, so that each tenant's completion times
	// are one slice of the state's completion-time scratch.
	nfin := append(s.tenantFin[:0], 0)
	total := 0
	for i := range s.flows {
		tn := int(s.flows[i].Tenant)
		for tn >= len(nfin) {
			nfin = append(nfin, 0)
		}
		if s.finished[i] >= 0 {
			nfin[tn]++
			total++
		}
	}
	s.tenantFin = nfin
	stats := make([]TenantStats, len(nfin))
	s.tenantFCT = freelist.Grow(s.tenantFCT, len(nfin))
	s.fct = freelist.Grow(s.fct, total)
	fcts, all := s.tenantFCT, s.fct
	for tn, n := range nfin {
		fcts[tn], all = all[:0:n], all[n:]
	}
	// A flow moves every delivered byte across every channel of its
	// path, so per-link byte totals are exact regardless of the rate
	// trajectory.
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
		st.DeliveredBytes += int64(d)
		r.DeliveredBytes += int64(d)
		if d == 0 {
			continue
		}
		for _, c := range s.path(int32(i)) {
			r.LinkBytes[c] += d
		}
	}
	if timedOut && s.cfg.MaxTicks > 0 {
		r.Makespan = s.cfg.MaxTicks
	}
	if r.Makespan > 0 {
		r.AggThroughput = float64(r.DeliveredBytes) / r.Makespan
		used, sum, max := 0, 0.0, 0.0
		for c := 0; c < links; c++ {
			r.LinkUtil[c] = r.LinkBytes[c] / (capacity * r.Makespan)
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
		slices.Sort(f)
		sum := 0.0
		for _, v := range f {
			sum += v
		}
		st.FCTAvg = sum / float64(len(f))
		st.FCTP50 = f[(len(f)-1)*50/100]
		st.FCTP99 = f[(len(f)-1)*99/100]
		st.FCTMax = f[len(f)-1]
	}
	// One row per tenant index up to the largest Flow.Tenant, empty rows
	// included, so that Flow.Tenant indexes PerTenant directly.
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
	if tm.Events != nil {
		tm.Events.Emit("flowsim_run", map[string]int64{
			"flows":          int64(r.FlowsTotal),
			"finished":       int64(r.FlowsFinished),
			"events":         r.Events,
			"recomputes":     r.Recomputes,
			"makespan_ticks": int64(r.Makespan),
			"timed_out":      b2i(r.TimedOut),
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
