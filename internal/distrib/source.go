package distrib

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/par"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// Options configures a Source.
type Options struct {
	// Workers bounds the parallel fanout: at most Workers agents are
	// pushed to concurrently per round (default 8).
	Workers int
	// AckTimeout bounds each write and each ack wait per agent
	// (default 5s).
	AckTimeout time.Duration
	// Retries is the number of resend attempts after the first failed
	// push before an agent is quarantined (default 2).
	Retries int
	// Backoff is the base delay between retries, scaled linearly by the
	// attempt number (default 50ms).
	Backoff time.Duration
	// Certify, when non-nil, certifies the union of the outgoing and the
	// incoming epoch before the round commits; an error selects the
	// drained install path. Nil also selects the drained path (no
	// certificate, no unsynchronized swap) — wire DefaultCertify for the
	// oracle-backed check.
	Certify func(net *graph.Network, old, new_ *routing.Result) error
	// Telemetry, when non-nil, receives the distrib_* metrics.
	Telemetry *telemetry.DistribMetrics
	// Logf, when non-nil, receives one line per notable round event.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.Telemetry == nil {
		// The zero bundle's nil handles are no-ops, so recording sites
		// need no nil checks.
		o.Telemetry = &telemetry.DistribMetrics{}
	}
}

// DefaultCertify is the oracle-backed transition certifier: it accepts
// a swap iff every per-switch mixture of the two epochs is deadlock
// free (oracle.CertifyTransition).
func DefaultCertify(n *graph.Network, old, new_ *routing.Result) error {
	_, err := oracle.CertifyTransition(n, old, new_, oracle.Options{})
	return err
}

// frameEntries caps the entries of one MsgDelta frame. An entry takes at
// most 12 bytes (a 7-byte position gap and a 5-byte next hop), so a frame
// stays under DefaultMaxFrame whatever the IDs.
const frameEntries = 1 << 20

// errNak is returned by a push when the agent rejected it; the next
// attempt falls back to a full snapshot.
var errNak = errors.New("distrib: agent nak")

// ackMsg is an Ack paired with the epoch of its carrying frame.
type ackMsg struct {
	Ack
	Epoch uint64
}

// agentConn is the source's per-agent connection. Frames are written
// only by the (single) round worker currently assigned to the agent; the
// reader goroutine only delivers acks. What the source knows of the agent
// is its fleetRecord, kept beside it in Source.conns.
type agentConn struct {
	conn  net.Conn
	id    string
	owned []graph.NodeID // nil = all switches
	acks  chan ackMsg

	// A push is built in buffers kept from round to round: the delta's
	// entries, its MsgDelta payloads back to back, where each payload
	// ends (cuts), the frame being written, the prepare's checksums and
	// the begin or prepare payload (msg). rows are the table rows the
	// agent owns, resolved in the row space rowSpace (a CompiledEpoch's
	// Switches) and resolved again only when it changes. timer bounds
	// every ack wait. Only the round worker holding the agent touches
	// them.
	entries  []routing.DeltaEntry
	payload  []byte
	cuts     []int
	frame    []byte
	sums     []RowSum
	msg      []byte
	rows     []int
	rowSpace []graph.NodeID
	timer    *time.Timer
}

// fleetRecord is what the source knows of one connected agent: the epoch
// it last acked, whether its next push must be a full sync, and whether
// it is quarantined. Records live in Source.conns, under Source.mu; a
// connection whose record is gone has been closed.
type fleetRecord struct {
	acked       uint64
	hasAcked    bool
	forceFull   bool
	quarantined bool
}

// holds reports whether the agent has acked epoch seq.
func (f *fleetRecord) holds(seq uint64) bool { return f.hasAcked && f.acked == seq }

// drainAcks discards acks left over from previous (timed-out) pushes.
func (a *agentConn) drainAcks() {
	for {
		select {
		case <-a.acks:
		default:
			return
		}
	}
}

// writeFrame writes f with one Write, assembled in a.frame, under the
// write deadline, and returns the number of bytes written.
func (a *agentConn) writeFrame(f Frame, timeout time.Duration) (int, error) {
	a.frame = AppendFrame(a.frame[:0], f)
	a.conn.SetWriteDeadline(time.Now().Add(timeout))
	return a.conn.Write(a.frame)
}

// awaitAck waits for an ack of the given epoch and phase. Acks for
// older epochs are discarded; a NAK returns errNak.
func (a *agentConn) awaitAck(epoch uint64, phase uint8, timeout time.Duration) (Ack, error) {
	// The connection's one timer. Under the go 1.22 timer rules a timer
	// that fired unread keeps its tick in C, so it is stopped and
	// drained before Reset.
	if !a.timer.Stop() {
		select {
		case <-a.timer.C:
		default:
		}
	}
	a.timer.Reset(timeout)
	defer a.timer.Stop()
	for {
		select {
		case m := <-a.acks:
			if m.Epoch != epoch {
				continue
			}
			if m.Phase == AckNak {
				return m.Ack, fmt.Errorf("%w: %s", errNak, m.Reason)
			}
			if m.Phase != phase {
				continue
			}
			return m.Ack, nil
		case <-a.timer.C:
			return Ack{}, fmt.Errorf("distrib: agent %s: ack timeout (epoch %d phase %d)", a.id, epoch, phase)
		}
	}
}

// Source distributes compiled routing epochs to a fleet of agents. It
// coalesces published epochs (always distributing the latest) and runs
// one two-phase round at a time.
type Source struct {
	opts Options

	// round is the round in flight, kept from round to round: only the
	// distributor goroutine runs rounds.
	round round

	// mu guards the fleet: the connections and their records, the target
	// and committed epochs. It is the source's one lock and is never held
	// across a conn write or an ack wait. Every change to what it guards
	// broadcasts cond, which the distributor and every WaitConverged
	// caller wait on.
	mu          sync.Mutex
	cond        *sync.Cond
	conns       map[*agentConn]*fleetRecord
	quarantined int            // records with quarantined set
	target      *CompiledEpoch // latest compiled epoch to distribute
	committed   *CompiledEpoch // last fleet-committed epoch
	wake        bool           // re-run a round (new agent) without a new epoch
	closed      bool

	wg sync.WaitGroup
}

// NewSource starts a distribution source. Close must be called to stop
// its distributor goroutine.
func NewSource(opts Options) *Source {
	opts.defaults()
	s := &Source{
		opts:  opts,
		conns: make(map[*agentConn]*fleetRecord),
	}
	s.cond = sync.NewCond(&s.mu)
	r := &s.round
	r.prepare = func(i int) {
		r.prepared[i] = s.pushToAgent(r.conns[i], r.target, r.committed, r.drain)
	}
	r.commit = func(i int) {
		if r.prepared[i] {
			r.errs[i] = s.commitAgent(r.conns[i], r.target)
		}
	}
	s.wg.Add(1)
	go s.distribute()
	return s
}

func (s *Source) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Publish hands one routing epoch to the source. Epochs are coalesced:
// if a round is in flight, only the latest published epoch is
// distributed next. Safe for concurrent use; this is the intended
// target of fabric.Options.OnPublish.
func (s *Source) Publish(e Epoch) {
	s.opts.Telemetry.EpochsPublished.Inc()
	compiled := Compile(e)
	s.mu.Lock()
	if s.target == nil || compiled.Seq >= s.target.Seq {
		s.target = compiled
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// AddConn adopts one agent connection: it reads the agent's Hello and
// registers it with the fleet. The connection is served until it fails
// or the source closes.
func (s *Source) AddConn(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(s.opts.AckTimeout))
	f, read, err := ReadFrame(conn, nil)
	if err != nil {
		conn.Close()
		return fmt.Errorf("distrib: reading hello: %w", err)
	}
	if f.Type != MsgHello {
		conn.Close()
		return fmt.Errorf("distrib: expected hello, got %v", f.Type)
	}
	h, err := ParseHello(f.Payload)
	if err != nil {
		conn.Close()
		return fmt.Errorf("distrib: bad hello: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	// The list is the Hello's own; a switch it names twice owns one row.
	slices.Sort(h.Switches)
	a := &agentConn{
		conn:  conn,
		id:    h.ID,
		owned: slices.Compact(h.Switches),
		acks:  make(chan ackMsg, 4),
		timer: time.NewTimer(s.opts.AckTimeout),
	}
	a.timer.Stop()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errors.New("distrib: source closed")
	}
	s.conns[a] = &fleetRecord{acked: h.Acked, hasAcked: h.HasAcked}
	n := len(s.conns)
	s.wake = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.opts.Telemetry.AgentsConnected.Set(int64(n))
	s.wg.Add(1)
	go s.readAgent(a, read)
	return nil
}

// Serve accepts agent connections from ln until it is closed (or the
// source is). It always returns a non-nil error, like http.Serve.
func (s *Source) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if err := s.AddConn(conn); err != nil {
			s.logf("distrib: rejected connection: %v", err)
		}
	}
}

// readAgent is the per-connection reader: it delivers acks and retires
// the connection on stream failure. It reads every frame into buf, the
// buffer the connection's Hello was read into.
func (s *Source) readAgent(a *agentConn, buf []byte) {
	defer s.wg.Done()
	for {
		var f Frame
		var err error
		f, buf, err = ReadFrame(a.conn, buf)
		if err != nil {
			if errors.Is(err, ErrFrameCorrupt) {
				continue // reject the frame, keep the stream
			}
			s.removeConn(a)
			return
		}
		if f.Type != MsgAck {
			continue
		}
		ack, err := ParseAck(f.Payload)
		if err != nil {
			continue
		}
		select {
		case a.acks <- ackMsg{Ack: ack, Epoch: f.Epoch}:
		default: // round long gone; drop
		}
	}
}

// removeConn drops a's record and closes its connection; the first call
// does, later ones find no record.
func (s *Source) removeConn(a *agentConn) {
	s.mu.Lock()
	rec := s.conns[a]
	if rec != nil {
		s.setQuarantined(rec, false)
		delete(s.conns, a)
		s.cond.Broadcast()
	}
	n := len(s.conns)
	s.mu.Unlock()
	if rec != nil {
		a.conn.Close()
		s.opts.Telemetry.AgentsConnected.Set(int64(n))
		s.logf("distrib: agent %s disconnected", a.id)
	}
}

// Close stops the distributor and closes every agent connection.
func (s *Source) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*agentConn, 0, len(s.conns))
	for a := range s.conns {
		conns = append(conns, a)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, a := range conns {
		s.removeConn(a)
	}
	s.wg.Wait()
	return nil
}

// FleetEpoch returns the last fleet-committed epoch (ok=false before
// the first commit).
func (s *Source) FleetEpoch() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.committed == nil {
		return 0, false
	}
	return s.committed.Seq, true
}

// Quarantined returns the IDs of currently quarantined agents.
func (s *Source) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for a, rec := range s.conns {
		if rec.quarantined {
			ids = append(ids, a.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// setQuarantined sets rec's quarantine mark, keeping the count and its
// gauge (mu held).
func (s *Source) setQuarantined(rec *fleetRecord, q bool) {
	if rec.quarantined == q {
		return
	}
	rec.quarantined = q
	if q {
		s.quarantined++
	} else {
		s.quarantined--
	}
	s.opts.Telemetry.Quarantined.Set(int64(s.quarantined))
}

// missing counts the connected agents that do not hold epoch seq, and
// the ones among them that are not quarantined: behind (mu held).
func (s *Source) missing(seq uint64) (missing, behind int) {
	for _, rec := range s.conns {
		if !rec.holds(seq) {
			missing++
			if !rec.quarantined {
				behind++
			}
		}
	}
	return missing, behind
}

// WaitConverged waits until the fleet is done with epoch seq, or the
// timeout elapses, and reports whether every connected agent then holds
// it: a quarantined straggler ends the wait but makes it false. The fleet
// is done with seq when the source committed it, no newer target is
// queued, and every connected agent has acked it or is quarantined.
func (s *Source) WaitConverged(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	var timer *time.Timer
	for {
		if s.committed != nil && s.committed.Seq == seq && (s.target == nil || s.target.Seq == seq) {
			if missing, behind := s.missing(seq); behind == 0 {
				if timer != nil {
					timer.Stop()
				}
				return missing == 0
			}
		}
		left := time.Until(deadline)
		if left <= 0 {
			return false
		}
		if timer == nil {
			// The deadline is one more change to wake on.
			timer = time.AfterFunc(left, s.broadcast)
		}
		s.cond.Wait()
	}
}

// broadcast wakes every waiter on cond.
func (s *Source) broadcast() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// distribute is the source's single distributor goroutine: it waits for
// a published epoch (or a fleet change) and runs rounds until the fleet
// is current. Quarantined stragglers deliberately do not keep it looping;
// they are retried on the next publish or connection wake.
func (s *Source) distribute() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && !s.wake && (s.target == nil || (s.committed == s.target && !s.anyBehind())) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.wake = false
		target := s.target
		r := &s.round
		r.conns = r.conns[:0]
		for a := range s.conns {
			r.conns = append(r.conns, a)
		}
		s.mu.Unlock()
		if target == nil {
			continue
		}
		slices.SortFunc(r.conns, func(a, b *agentConn) int { return strings.Compare(a.id, b.id) })
		s.runRound(target)
	}
}

// anyBehind reports whether some connected, non-quarantined agent has not
// acked the committed epoch (mu held).
func (s *Source) anyBehind() bool {
	if s.committed == nil {
		return false
	}
	_, behind := s.missing(s.committed.Seq)
	return behind > 0
}

// round is one distribution round: what runRound distributes, to whom,
// and what each agent's prepare and commit came to. Its slices are kept
// from round to round, and prepare and commit, the tasks par.For runs per
// agent, are bound to it once.
type round struct {
	target, committed *CompiledEpoch
	conns             []*agentConn // in agent-ID order
	drain             bool
	prepared          []bool
	errs              []error // commit outcomes
	prepare, commit   func(i int)
}

// runRound distributes target to the round's conns with the two-phase
// protocol: certify (or drain), bounded-fanout prepare, ack barrier,
// commit.
func (s *Source) runRound(target *CompiledEpoch) {
	tm := s.opts.Telemetry
	tm.RoundsStarted.Inc()

	s.mu.Lock()
	committed := s.committed
	s.mu.Unlock()
	r := &s.round
	conns := r.conns

	// Certify the union of the outgoing and incoming epoch; a refuted
	// (or uncertifiable) union drains the fleet across the swap. A round
	// with nobody to swap — a standby publisher's, every epoch — has no
	// union to certify; an agent that joins later holding another base
	// than committed drains by sendEpoch's own rule.
	drain := false
	if len(conns) > 0 && committed != nil && committed.Seq != target.Seq {
		if s.opts.Certify == nil {
			drain = true
			tm.DrainFallbacks.Inc()
		} else if err := s.opts.Certify(target.Net, committed.Result, target.Result); err != nil {
			drain = true
			tm.DrainFallbacks.Inc()
			s.logf("distrib: epoch %d -> %d union refuted, draining: %v", committed.Seq, target.Seq, err)
		} else {
			tm.TransitionsCertified.Inc()
		}
	}
	r.target, r.committed, r.drain = target, committed, drain
	r.prepared = slices.Grow(r.prepared[:0], len(conns))[:len(conns)]
	r.errs = slices.Grow(r.errs[:0], len(conns))[:len(conns)]
	clear(r.prepared)
	clear(r.errs)

	// Prepare fanout: par.For on at most Options.Workers goroutines
	// pushes the epoch to every agent and collects the prepare acks.
	barrierStart := time.Now()
	par.For(s.opts.Workers, len(conns), r.prepare)
	tm.BarrierNanos.ObserveSince(barrierStart)

	// The ack barrier: only agents that prepared take part in the
	// commit; stragglers were quarantined above and re-sync next round.
	// The commits fan out like the prepares — each is one write and one
	// awaited ack — and their outcomes are booked in agent-ID order.
	commitStart := time.Now()
	par.For(s.opts.Workers, len(conns), r.commit)
	committedAgents := 0
	for i, a := range conns {
		switch {
		case !r.prepared[i]:
		case r.errs[i] != nil:
			s.quarantine(a, r.errs[i])
		default:
			committedAgents++
		}
	}
	tm.CommitNanos.ObserveSince(commitStart)
	// The round keeps no epoch, connection or error alive until the
	// next one.
	r.target, r.committed = nil, nil
	clear(r.errs)
	clear(conns)
	s.endRound(target, len(conns), committedAgents, drain)
}

// endRound books a finished round: the fleet-committed epoch, the
// gauges, and the round's event and log line, which are only built when
// someone reads them.
func (s *Source) endRound(target *CompiledEpoch, agents, committedAgents int, drain bool) {
	tm := s.opts.Telemetry
	s.mu.Lock()
	s.committed = target
	s.cond.Broadcast()
	s.mu.Unlock()
	tm.EpochsCommitted.Inc()
	tm.FleetEpoch.Set(int64(target.Seq))
	if tm.Events != nil {
		tm.Events.Emit("distrib_round", map[string]int64{
			"epoch":     int64(target.Seq),
			"agents":    int64(agents),
			"committed": int64(committedAgents),
			"drained":   boolInt(drain),
		})
	}
	if s.opts.Logf != nil {
		s.logf("distrib: epoch %d committed on %d/%d agents (drain=%v)", target.Seq, committedAgents, agents, drain)
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// pushToAgent runs the prepare phase for one agent, with retries and
// backoff; it returns true once the agent acked the prepare. Exhausted
// retries quarantine the agent.
func (s *Source) pushToAgent(a *agentConn, target, committed *CompiledEpoch, drain bool) bool {
	s.mu.Lock()
	rec := s.conns[a]
	current := rec == nil || rec.holds(target.Seq)
	s.mu.Unlock()
	if current {
		return false // gone, or nothing to push: nothing to commit
	}
	var lastErr error
	for attempt := 0; attempt <= s.opts.Retries; attempt++ {
		if attempt > 0 {
			s.opts.Telemetry.Retries.Inc()
			time.Sleep(s.opts.Backoff * time.Duration(attempt))
		}
		lastErr = s.sendEpoch(a, target, committed, drain)
		nak := errors.Is(lastErr, errNak)
		if nak {
			// The agent rejected the push (corrupt frame, stale base or
			// checksum mismatch): re-sync from a full snapshot.
			s.opts.Telemetry.Naks.Inc()
		}
		s.mu.Lock()
		rec := s.conns[a]
		if rec != nil {
			if lastErr == nil {
				s.setQuarantined(rec, false)
			}
			if nak {
				rec.forceFull = true
			}
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		if lastErr == nil || rec == nil {
			return lastErr == nil
		}
	}
	s.quarantine(a, lastErr)
	return false
}

// quarantine excludes an agent from the current barrier; it stays
// connected and is retried (from a full snapshot) on following rounds.
func (s *Source) quarantine(a *agentConn, err error) {
	s.mu.Lock()
	if rec := s.conns[a]; rec != nil {
		s.setQuarantined(rec, true)
		rec.forceFull = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.logf("distrib: agent %s quarantined: %v", a.id, err)
}

// sendEpoch writes one complete push (begin, tables, prepare) to the
// agent and waits for its prepare ack.
func (s *Source) sendEpoch(a *agentConn, target, committed *CompiledEpoch, drain bool) error {
	tm := s.opts.Telemetry
	if !slices.Equal(a.rowSpace, target.Switches) {
		a.rows, a.rowSpace = target.appendOwnedRows(a.rows[:0], a.owned), target.Switches
	}
	rows := a.rows

	s.mu.Lock()
	var rec fleetRecord
	if r := s.conns[a]; r != nil {
		rec = *r
	}
	s.mu.Unlock()
	onBase := committed != nil && rec.holds(committed.Seq)
	// Delta pushes need the agent to sit exactly on the last committed
	// epoch with an identical row space; anything else gets a snapshot.
	full := rec.forceFull || !onBase || committed.Cols != target.Cols || !sameRowSpace(committed, target, rows)
	// An agent holding any previous epoch whose union with the target
	// was not certified (stale base, or a refuted round) must drain.
	drainAgent := rec.hasAcked && (drain || !onBase)

	// Every push is a delta: from the committed epoch, or from an empty
	// table (a full sync), cut into MsgDelta frames of at most
	// frameEntries entries each.
	begin := Begin{Rows: len(rows), Cols: target.Cols}
	var base *CompiledEpoch
	if full {
		tm.FullSyncs.Inc()
	} else {
		base = committed
		begin.Base, begin.HasBase = committed.Seq, true
	}
	a.entries = target.deltaEntries(a.entries[:0], base, rows)
	a.payload, a.cuts = a.payload[:0], a.cuts[:0]
	for lo := 0; lo == 0 || lo < len(a.entries); lo += frameEntries {
		a.payload = routing.EncodeDelta(a.payload, len(rows), target.Cols, a.entries[lo:min(lo+frameEntries, len(a.entries))])
		a.cuts = append(a.cuts, len(a.payload))
	}
	begin.Frames = len(a.cuts)
	if fullSize := target.fullSize(rows); base != nil && fullSize > 0 {
		tm.DeltaPermille.Observe(int64(len(a.payload)) * 1000 / int64(fullSize))
	}
	var flags uint8
	if drainAgent {
		flags = FlagDrain
	}

	a.drainAcks()
	pushStart := time.Now()
	sent := 0
	write := func(f Frame) error {
		n, err := a.writeFrame(f, s.opts.AckTimeout)
		sent += n
		return err
	}
	a.msg = AppendBegin(a.msg[:0], begin)
	if err := write(Frame{Type: MsgBegin, Flags: flags, Epoch: target.Seq, Payload: a.msg}); err != nil {
		return err
	}
	start := 0
	for _, end := range a.cuts {
		if err := write(Frame{Type: MsgDelta, Epoch: target.Seq, Payload: a.payload[start:end]}); err != nil {
			return err
		}
		start = end
	}
	a.sums = target.appendRowSums(a.sums[:0], rows)
	a.msg = AppendPrepare(a.msg[:0], a.sums)
	if err := write(Frame{Type: MsgPrepare, Flags: flags, Epoch: target.Seq, Payload: a.msg}); err != nil {
		return err
	}
	tm.FramesSent.Add(int64(len(a.cuts) + 2))
	tm.BytesSent.Add(int64(sent))
	tm.EpochBytes.Observe(int64(sent))

	ack, err := a.awaitAck(target.Seq, AckPrepared, s.opts.AckTimeout)
	if err != nil {
		return err
	}
	if want := target.fleetCRCFor(rows); ack.FleetCRC != want {
		return fmt.Errorf("%w: prepare fleet CRC %#x, want %#x", errNak, ack.FleetCRC, want)
	}
	tm.PrepareNanos.ObserveSince(pushStart)
	return nil
}

// commitAgent orders the atomic swap on one prepared agent and records
// its new acked epoch.
func (s *Source) commitAgent(a *agentConn, target *CompiledEpoch) error {
	if _, err := a.writeFrame(Frame{Type: MsgCommit, Epoch: target.Seq}, s.opts.AckTimeout); err != nil {
		return err
	}
	s.opts.Telemetry.FramesSent.Inc()
	if _, err := a.awaitAck(target.Seq, AckCommitted, s.opts.AckTimeout); err != nil {
		return err
	}
	s.mu.Lock()
	if rec := s.conns[a]; rec != nil {
		rec.acked, rec.hasAcked = target.Seq, true
		rec.forceFull = false
		s.setQuarantined(rec, false)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	return nil
}

// sameRowSpace reports whether the agent row set rows maps to the same
// switches in both epochs (the delta base validity condition).
func sameRowSpace(committed, target *CompiledEpoch, rows []int) bool {
	if committed.Rows != target.Rows {
		return false
	}
	for _, r := range rows {
		if r >= len(committed.Switches) || committed.Switches[r] != target.Switches[r] {
			return false
		}
	}
	return true
}
