// Package sim is a lossless-network simulator in the spirit of the
// OMNeT++ flit-level toolchain the paper evaluates with: input-buffered
// switches, virtual lanes, credit-based flow control, and deterministic
// destination-based forwarding from a routing.Result (including SL2VL
// mappings). Messages are segmented into packets of a few flits each, so
// wormhole-style pipelining emerges at packet granularity; a channel
// transmits one flit per cycle.
//
// The simulator is event-driven: a blocked packet schedules nothing, so a
// deadlock manifests naturally as an empty event queue with undelivered
// packets — the simulator detects and reports real deadlocks rather than
// assuming the routing is safe.
package sim

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// Config tunes the simulation. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// PacketFlits is the number of flits per packet (a channel occupies
	// one cycle per flit).
	PacketFlits int
	// MessageFlits is the message size in flits; messages are segmented
	// into ceil(MessageFlits/PacketFlits) packets. The paper's 2 KiB
	// messages at 64-byte flits are MessageFlits = 32.
	MessageFlits int
	// BufferPackets is the per-(channel, VL) input buffer capacity in
	// packets.
	BufferPackets int
	// MaxCycles aborts runs that exceed this simulated time (0 = no cap).
	MaxCycles int64
	// Telemetry, when non-nil, receives run counters (flits injected and
	// delivered, stall cycles, per-VC queue-depth high-water marks,
	// deadlock-detector sweeps). Observation-only; nil records nothing.
	Telemetry *telemetry.SimMetrics
}

// DefaultConfig returns a laptop-sized configuration: 512-byte messages
// of 8-flit packets. Use PaperConfig for the full 2 KiB messages.
func DefaultConfig() Config {
	return Config{PacketFlits: 8, MessageFlits: 16, BufferPackets: 2}
}

// PaperConfig matches the paper's message size (2 KiB at 64-byte flits).
func PaperConfig() Config {
	return Config{PacketFlits: 8, MessageFlits: 32, BufferPackets: 2}
}

// Message is one transfer between terminals.
type Message struct {
	Src, Dst graph.NodeID
}

// WalkError reports the first message whose path routing.Walk refused:
// the table has no route for it, loops, or takes a failed channel. The
// run is refused before it starts, so a mis-routed table is flagged,
// never silently simulated. Err is the *routing.WalkError.
type WalkError struct {
	MessageIndex int
	Err          error
}

func (e *WalkError) Error() string {
	return fmt.Sprintf("sim: message %d: %v", e.MessageIndex, e.Err)
}

func (e *WalkError) Unwrap() error { return e.Err }

// Result summarizes a simulation run.
type Result struct {
	// Cycles is the makespan (time of last delivery, or time of deadlock
	// detection).
	Cycles int64
	// DeliveredFlits counts payload flits that reached their destination.
	DeliveredFlits int64
	// DeliveredMessages counts fully delivered messages.
	DeliveredMessages int
	// TotalMessages is the offered load.
	TotalMessages int
	// Deadlocked is true when the network wedged: undelivered packets
	// remain but no progress is possible.
	Deadlocked bool
	// TimedOut is true when MaxCycles was exceeded.
	TimedOut bool
	// FlitsPerCycle is aggregate delivered throughput.
	FlitsPerCycle float64
	// AvgMsgLatency and MaxMsgLatency measure cycles from a message's
	// first flit entering the network to its tail flit delivery.
	AvgMsgLatency, MaxMsgLatency float64
	// AvgLinkUtilization and MaxLinkUtilization are busy-cycle fractions
	// over the switch-to-switch channels that carried traffic.
	AvgLinkUtilization, MaxLinkUtilization float64
	// InjectedFlits counts payload flits whose packet entered the
	// network (first transmission on an injection channel). The
	// conservation invariant InjectedFlits == DeliveredFlits +
	// InFlightFlits holds on every exit path.
	InjectedFlits int64
	// InFlightFlits is the number of injected-but-undelivered flits at
	// the end of the run, measured by an independent sweep of the
	// buffers and the event queue (0 after a fully delivered run).
	InFlightFlits int64
	// StallCycles accumulates cycles in-network packets spent waiting
	// for an output channel or downstream credit; CreditStalls counts
	// transmission attempts refused for lack of buffer credit.
	StallCycles  int64
	CreditStalls int64
	// DeadlockSweeps counts deadlock-detector sweeps; the detector runs
	// whenever the event queue drains and decides Deadlocked from the
	// undelivered traffic it finds.
	DeadlockSweeps int64
	// LinkBusy[c] is the number of cycles channel c spent transmitting:
	// the per-link load profile (the flow-level cross-validation ranks
	// links by it against the fluid model's LinkBytes).
	LinkBusy []int64
}

// ThroughputGBs converts flit throughput to an aggregate GB/s figure
// assuming QDR InfiniBand links (4 GB/s per link, 64-byte flits, so one
// flit/cycle equals 4 GB/s).
func (r Result) ThroughputGBs() float64 { return r.FlitsPerCycle * 4.0 }

// packet is one in-flight packet.
type packet struct {
	dst   graph.NodeID
	sl    uint8
	flits int32
	// cur is the channel whose buffer currently holds the packet
	// (NoChannel while waiting for injection), curVL its virtual lane.
	cur   graph.ChannelID
	curVL uint8
	last  bool // tail packet of its message
	// route, if non-nil, is an explicit source route (PairPath override);
	// hop indexes the next channel to take.
	route []graph.ChannelID
	hop   int32
	// waitSince is the cycle the packet was appended to an output-wait
	// queue (stall accounting; meaningful only while waiting).
	waitSince int64
	// msg is the message this packet belongs to (latency accounting).
	msg *msgState
}

// msgState tracks one message's lifecycle.
type msgState struct {
	start int64 // first flit entered the network (-1 = not yet)
}

// event kinds.
const (
	evArrival  = iota // packet fully received at the head of a channel
	evChanFree        // channel finished transmitting
)

type event struct {
	time int64
	kind int8
	ch   graph.ChannelID
	pkt  *packet
}

type eventQueue []event

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].time < q[j].time }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// sim is the run state.
type sim struct {
	net *graph.Network
	res *routing.Result
	cfg Config
	vcs int

	busyUntil []int64       // per channel
	bufCount  [][]int32     // [channel][vl] occupied packets (reserved at start)
	bufQueue  [][][]*packet // [channel][vl] FIFO of fully arrived packets
	outWait   [][]*packet   // per channel: FIFO of packets requesting it

	events eventQueue
	now    int64

	delivered     int64
	deliveredMsgs int
	totalMsgs     int

	// Telemetry accounting (always maintained; plain integer updates on
	// paths that already touch the same cache lines).
	injectedFlits int64
	stallCycles   int64
	creditStalls  int64
	sweeps        int64
	lastInFlight  int64
	vlHWM         []int64 // per-VL max single-queue depth, in packets

	// Latency and utilization accounting.
	latencySum int64
	latencyMax int64
	busyCycles []int64 // per channel
}

// Run simulates the delivery of messages under the routing result and
// returns throughput and deadlock information. Each message's path is
// walked once with routing.Walk before the run; a message it refuses
// aborts the run with a *WalkError.
func Run(net *graph.Network, res *routing.Result, messages []Message, cfg Config) (Result, error) {
	if cfg.PacketFlits < 1 || cfg.MessageFlits < 1 || cfg.BufferPackets < 1 {
		return Result{}, fmt.Errorf("sim: invalid config %+v", cfg)
	}
	vcs := res.VCs
	if vcs < 1 {
		vcs = 1
	}
	s := &sim{
		net:       net,
		res:       res,
		cfg:       cfg,
		vcs:       vcs,
		busyUntil: make([]int64, net.NumChannels()),
		bufCount:  make([][]int32, net.NumChannels()),
		bufQueue:  make([][][]*packet, net.NumChannels()),
		outWait:   make([][]*packet, net.NumChannels()),
	}
	for c := range s.bufCount {
		s.bufCount[c] = make([]int32, vcs)
		s.bufQueue[c] = make([][]*packet, vcs)
	}
	s.vlHWM = make([]int64, vcs)
	// Segment messages into packets and enqueue them on their injection
	// channels in order (terminals serialize their own sends naturally).
	var path []graph.ChannelID
	for i, m := range messages {
		if m.Src == m.Dst || net.Degree(m.Src) == 0 || net.Degree(m.Dst) == 0 {
			continue
		}
		// A walked path ends at m.Dst and enters no other terminal (a
		// terminal has one link), so the packets below always find their
		// next hop and eject only at their destination.
		var err error
		if path, err = routing.Walk(net, res, m.Src, m.Dst, path); err != nil {
			return Result{}, &WalkError{MessageIndex: i, Err: err}
		}
		var route []graph.ChannelID
		if res.PairPath != nil {
			route = res.PairPath[routing.PairKey(m.Src, m.Dst)]
		}
		s.totalMsgs++
		s.segment(&msgState{start: -1}, path[0], route, m.Dst, s.res.Layer(m.Src, m.Dst))
	}
	s.busyCycles = make([]int64, net.NumChannels())
	// Prime all injection channels.
	for c := range s.outWait {
		if len(s.outWait[c]) > 0 {
			s.kick(graph.ChannelID(c))
		}
	}
	// Main loop.
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		s.now = e.time
		if cfg.MaxCycles > 0 && s.now > cfg.MaxCycles {
			// The popped event's packet (if any) is in transit but no
			// longer in the queue; hand it to the sweep explicitly.
			var extra *packet
			if e.kind == evArrival {
				extra = e.pkt
			}
			s.sweeps++
			inFlight, _ := s.sweep(extra)
			s.lastInFlight = inFlight
			return s.result(false, true), nil
		}
		switch e.kind {
		case evArrival:
			s.arrive(e.pkt, e.ch)
		case evChanFree:
			s.kick(e.ch)
		}
	}
	return s.result(s.detectDeadlock(), false), nil
}

// sweep measures undelivered traffic without consulting the delivery
// counters: inFlight is the flit total of injected packets still inside
// the network (input buffers, the event queue, plus the optional extra
// in-transit packet), waiting the flit total of packets never injected
// (injection wait queues). It is the
// independent measurement behind the deadlock detector and the
// injected == delivered + in-flight invariant.
func (s *sim) sweep(extra *packet) (inFlight, waiting int64) {
	for c := range s.bufQueue {
		for vl := range s.bufQueue[c] {
			for _, p := range s.bufQueue[c][vl] {
				inFlight += int64(p.flits)
			}
		}
	}
	for _, e := range s.events {
		if e.kind == evArrival {
			inFlight += int64(e.pkt.flits)
		}
	}
	if extra != nil {
		inFlight += int64(extra.flits)
	}
	for _, q := range s.outWait {
		for _, p := range q {
			if p.cur == graph.NoChannel {
				waiting += int64(p.flits)
			}
		}
	}
	return inFlight, waiting
}

// detectDeadlock is the deadlock detector: it runs when the event queue
// drains (a blocked packet schedules nothing, so a wedged network goes
// silent) and sweeps the network for undelivered traffic. Any stranded
// or never-injectable flits mean no progress is possible — a real
// routing deadlock (or a disconnected destination), not a timeout.
func (s *sim) detectDeadlock() bool {
	s.sweeps++
	inFlight, waiting := s.sweep(nil)
	s.lastInFlight = inFlight
	return inFlight+waiting > 0
}

func (s *sim) result(deadlocked, timedOut bool) Result {
	r := Result{
		Cycles:            s.now,
		DeliveredFlits:    s.delivered,
		DeliveredMessages: s.deliveredMsgs,
		TotalMessages:     s.totalMsgs,
		Deadlocked:        deadlocked,
		TimedOut:          timedOut,
		InjectedFlits:     s.injectedFlits,
		InFlightFlits:     s.lastInFlight,
		StallCycles:       s.stallCycles,
		CreditStalls:      s.creditStalls,
		DeadlockSweeps:    s.sweeps,
		LinkBusy:          append([]int64(nil), s.busyCycles...),
	}
	s.reportTelemetry(&r)
	if s.now > 0 {
		r.FlitsPerCycle = float64(s.delivered) / float64(s.now)
		used, sum, max := 0, 0.0, 0.0
		for c := range s.busyCycles {
			ch := s.net.Channel(graph.ChannelID(c))
			if s.busyCycles[c] == 0 || !s.net.IsSwitch(ch.From) || !s.net.IsSwitch(ch.To) {
				continue
			}
			u := float64(s.busyCycles[c]) / float64(s.now)
			used++
			sum += u
			if u > max {
				max = u
			}
		}
		if used > 0 {
			r.AvgLinkUtilization = sum / float64(used)
			r.MaxLinkUtilization = max
		}
	}
	if s.deliveredMsgs > 0 {
		r.AvgMsgLatency = float64(s.latencySum) / float64(s.deliveredMsgs)
		r.MaxMsgLatency = float64(s.latencyMax)
	}
	return r
}

// reportTelemetry publishes the finished run into the telemetry bundle
// (one batch of atomic adds; no per-cycle overhead).
func (s *sim) reportTelemetry(r *Result) {
	tm := s.cfg.Telemetry
	if tm == nil {
		return
	}
	tm.Runs.Inc()
	tm.FlitsInjected.Add(r.InjectedFlits)
	tm.FlitsDelivered.Add(r.DeliveredFlits)
	tm.FlitsInFlight.Set(r.InFlightFlits)
	tm.MessagesDelivered.Add(int64(r.DeliveredMessages))
	tm.StallCycles.Add(r.StallCycles)
	tm.CreditStalls.Add(r.CreditStalls)
	tm.DeadlockSweeps.Add(r.DeadlockSweeps)
	for vl, hwm := range s.vlHWM {
		if hwm > 0 {
			tm.QueueHWMFor(vl).SetMax(hwm)
		}
	}
	if r.TimedOut {
		tm.Timeouts.Inc()
	}
	if r.Deadlocked {
		tm.Deadlocks.Inc()
		if tm.Events != nil {
			tm.Events.Emit("sim_deadlock", map[string]int64{
				"cycles":          r.Cycles,
				"stranded_flits":  r.InFlightFlits,
				"delivered_flits": r.DeliveredFlits,
				"injected_flits":  r.InjectedFlits,
			})
		}
	}
	if tm.Events != nil {
		tm.Events.Emit("sim_run", map[string]int64{
			"cycles":          r.Cycles,
			"injected_flits":  r.InjectedFlits,
			"delivered_flits": r.DeliveredFlits,
			"stall_cycles":    r.StallCycles,
			"deadlocked":      b2i(r.Deadlocked),
			"timed_out":       b2i(r.TimedOut),
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// segment splits one message into packets and enqueues them on the
// injection channel.
func (s *sim) segment(ms *msgState, inj graph.ChannelID, route []graph.ChannelID, dst graph.NodeID, sl uint8) {
	remaining := s.cfg.MessageFlits
	for remaining > 0 {
		f := s.cfg.PacketFlits
		if f > remaining {
			f = remaining
		}
		remaining -= f
		p := &packet{dst: dst, sl: sl, flits: int32(f), cur: graph.NoChannel,
			last: remaining == 0, route: route, msg: ms}
		s.outWait[inj] = append(s.outWait[inj], p)
	}
}

// nextChannel returns the packet's next hop from node u, short of its
// destination.
func (s *sim) nextChannel(p *packet, u graph.NodeID) graph.ChannelID {
	if p.route != nil {
		return p.route[p.hop]
	}
	return s.res.Table.Next(u, p.dst)
}

// vlOn returns the packet's VL on channel c, clamped to the VC count.
func (s *sim) vlOn(p *packet, c graph.ChannelID) uint8 {
	vl := s.res.VL(p.sl, c)
	if int(vl) >= s.vcs {
		vl = uint8(s.vcs - 1)
	}
	return vl
}

// deliver accounts a packet's arrival at its destination. A message is
// complete when its tail packet lands.
func (s *sim) deliver(p *packet) {
	s.delivered += int64(p.flits)
	if !p.last {
		return
	}
	s.deliveredMsgs++
	if p.msg.start >= 0 {
		lat := s.now - p.msg.start
		s.latencySum += lat
		if lat > s.latencyMax {
			s.latencyMax = lat
		}
	}
}

// kick retries the waiters of channel c: if c is idle, the first request
// with downstream credit starts transmitting.
func (s *sim) kick(c graph.ChannelID) {
	if s.busyUntil[c] > s.now {
		return
	}
	// Note: startOn can reenter and append new waiters to s.outWait[c]
	// (the next buffer head may request the same channel), so the slice
	// must be re-read on every iteration and for the removal.
	for i := 0; i < len(s.outWait[c]); i++ {
		p := s.outWait[c][i]
		if s.startOn(p, c) {
			// In-network packets accumulate stall cycles for the whole
			// time they sat in the wait queue (injection queuing at the
			// source is not a network stall).
			if p.cur != graph.NoChannel {
				s.stallCycles += s.now - p.waitSince
			}
			s.outWait[c] = append(s.outWait[c][:i], s.outWait[c][i+1:]...)
			return
		}
	}
}

// startOn attempts to begin transmitting p over c; it returns false when
// the downstream buffer has no credit. The channel must be idle.
func (s *sim) startOn(p *packet, c graph.ChannelID) bool {
	to := s.net.Channel(c).To
	vl := s.vlOn(p, c)
	// A destination absorbs at link rate (see arrive), so only a switch
	// the packet passes through lends it an input-buffer slot.
	if s.net.IsSwitch(to) && to != p.dst {
		if s.bufCount[c][vl] >= int32(s.cfg.BufferPackets) {
			s.creditStalls++
			return false
		}
		s.bufCount[c][vl]++ // reserve the slot for the whole transfer
	}
	if p.cur == graph.NoChannel {
		// First transmission from the source: the packet enters the
		// network now.
		s.injectedFlits += int64(p.flits)
	}
	dur := int64(p.flits)
	s.busyUntil[c] = s.now + dur
	s.busyCycles[c] += dur
	if p.msg.start < 0 {
		p.msg.start = s.now // first flit of the message enters the network
	}
	heap.Push(&s.events, event{time: s.now + dur, kind: evChanFree, ch: c})
	heap.Push(&s.events, event{time: s.now + dur, kind: evArrival, ch: c, pkt: p})
	// Free the upstream buffer head: the packet's flits drain as they are
	// transmitted; the slot itself is released on arrival (see arrive).
	if p.cur != graph.NoChannel {
		q := s.bufQueue[p.cur][p.curVL]
		if len(q) == 0 || q[0] != p {
			panic("sim: transmitting packet is not at its buffer head")
		}
		s.bufQueue[p.cur][p.curVL] = q[1:]
		// The next head may request a different output immediately.
		if len(q) > 1 {
			s.request(q[1])
		}
	}
	return true
}

// request routes packet p (fully buffered at the head of its queue) to
// its next channel, starting immediately when possible. Run walked the
// packet's path, so the hop exists.
func (s *sim) request(p *packet) {
	c := s.nextChannel(p, s.net.Channel(p.cur).To)
	if s.busyUntil[c] <= s.now && s.startOn(p, c) {
		return
	}
	p.waitSince = s.now
	s.outWait[c] = append(s.outWait[c], p)
}

// arrive completes a packet's transfer over channel c.
func (s *sim) arrive(p *packet, c graph.ChannelID) {
	// Release the upstream slot the packet occupied before this hop.
	if p.cur != graph.NoChannel {
		s.bufCount[p.cur][p.curVL]--
		s.kick(p.cur)
	}
	if p.route != nil {
		p.hop++ // advance the explicit source route
	}
	to := s.net.Channel(c).To
	vl := s.vlOn(p, c)
	if to == p.dst {
		// Ejection: the destination absorbs at link rate.
		s.deliver(p)
		return
	}
	p.cur, p.curVL = c, vl
	s.bufQueue[c][vl] = append(s.bufQueue[c][vl], p)
	if d := int64(len(s.bufQueue[c][vl])); d > s.vlHWM[vl] {
		s.vlHWM[vl] = d
	}
	if len(s.bufQueue[c][vl]) == 1 {
		s.request(p)
	}
}
