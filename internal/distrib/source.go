package distrib

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
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

// errNak is returned by a push when the agent rejected it; the next
// attempt falls back to a full snapshot.
var errNak = errors.New("distrib: agent nak")

// ackMsg is an Ack paired with the epoch of its carrying frame.
type ackMsg struct {
	Ack
	Epoch uint64
}

// agentConn is the source's per-agent connection state. Frames are
// written only by the (single) round worker currently assigned to the
// agent; the reader goroutine only delivers acks.
type agentConn struct {
	conn  net.Conn
	id    string
	owned []graph.NodeID // nil = all switches
	acks  chan ackMsg

	mu          sync.Mutex
	acked       uint64
	hasAcked    bool
	forceFull   bool
	quarantined bool
	closed      bool
}

// ID returns the agent's self-reported identity.
func (a *agentConn) ID() string { return a.id }

func (a *agentConn) close() {
	a.mu.Lock()
	already := a.closed
	a.closed = true
	a.mu.Unlock()
	if !already {
		a.conn.Close()
	}
}

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

// awaitAck waits for an ack of the given epoch and phase. Acks for
// older epochs are discarded; a NAK returns errNak.
func (a *agentConn) awaitAck(epoch uint64, phase uint8, timeout time.Duration) (Ack, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
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
		case <-deadline.C:
			return Ack{}, fmt.Errorf("distrib: agent %s: ack timeout (epoch %d phase %d)", a.id, epoch, phase)
		}
	}
}

// Source distributes compiled routing epochs to a fleet of agents. It
// coalesces published epochs (always distributing the latest) and runs
// one two-phase round at a time.
type Source struct {
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond
	conns     map[*agentConn]struct{}
	target    *CompiledEpoch // latest compiled epoch to distribute
	committed *CompiledEpoch // last fleet-committed epoch
	wake      bool           // re-run a round (new agent) without a new epoch
	round     uint64         // completed rounds, for Wait helpers
	closed    bool

	wg sync.WaitGroup
}

// NewSource starts a distribution source. Close must be called to stop
// its distributor goroutine.
func NewSource(opts Options) *Source {
	opts.defaults()
	s := &Source{
		opts:  opts,
		conns: make(map[*agentConn]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
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
	s.mu.Unlock()
	s.cond.Signal()
}

// AddConn adopts one agent connection: it reads the agent's Hello and
// registers it with the fleet. The connection is served until it fails
// or the source closes.
func (s *Source) AddConn(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(s.opts.AckTimeout))
	f, err := ReadFrame(conn, DefaultMaxFrame)
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
	owned := h.Switches
	if owned != nil {
		owned = append([]graph.NodeID(nil), owned...)
		sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	}
	a := &agentConn{
		conn:     conn,
		id:       h.ID,
		owned:    owned,
		acks:     make(chan ackMsg, 4),
		acked:    h.Acked,
		hasAcked: h.HasAcked,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return errors.New("distrib: source closed")
	}
	s.conns[a] = struct{}{}
	n := len(s.conns)
	s.wake = true
	s.mu.Unlock()
	s.opts.Telemetry.AgentsConnected.Set(int64(n))
	s.wg.Add(1)
	go s.readAgent(a)
	s.cond.Signal()
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
// the connection on stream failure.
func (s *Source) readAgent(a *agentConn) {
	defer s.wg.Done()
	for {
		f, err := ReadFrame(a.conn, DefaultMaxFrame)
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

func (s *Source) removeConn(a *agentConn) {
	a.close()
	s.mu.Lock()
	_, present := s.conns[a]
	delete(s.conns, a)
	n := len(s.conns)
	s.mu.Unlock()
	if present {
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
	s.mu.Unlock()
	s.cond.Broadcast()
	for _, a := range conns {
		a.close()
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
	for a := range s.conns {
		a.mu.Lock()
		if a.quarantined {
			ids = append(ids, a.id)
		}
		a.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}

// converged reports whether the fleet has fully caught up to epoch seq:
// the source committed it, no newer target is queued, and every
// connected, non-quarantined agent has acked it.
func (s *Source) converged(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.committed == nil || s.committed.Seq != seq {
		return false
	}
	if s.target != nil && s.target.Seq != seq {
		return false
	}
	for a := range s.conns {
		a.mu.Lock()
		ok := a.quarantined || (a.hasAcked && a.acked == seq)
		a.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// WaitConverged blocks until converged(seq) or the timeout elapses.
func (s *Source) WaitConverged(seq uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !s.converged(seq) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// distribute is the source's single distributor goroutine: it waits for
// a published epoch (or a fleet change) and runs rounds until the fleet
// is current.
func (s *Source) distribute() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && !s.wake && (s.target == nil || (s.committed == s.target && !s.anyBehindLocked())) {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.wake = false
		target := s.target
		conns := make([]*agentConn, 0, len(s.conns))
		for a := range s.conns {
			conns = append(conns, a)
		}
		s.mu.Unlock()
		if target == nil {
			continue
		}
		sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
		s.runRound(target, conns)
	}
}

// anyBehindLocked reports whether some connected, non-quarantined agent
// has not acked the committed epoch (mu held). Quarantined stragglers
// deliberately do not keep the distributor looping; they are retried on
// the next publish or connection wake.
func (s *Source) anyBehindLocked() bool {
	if s.committed == nil {
		return false
	}
	for a := range s.conns {
		a.mu.Lock()
		behind := !a.quarantined && (!a.hasAcked || a.acked != s.committed.Seq)
		a.mu.Unlock()
		if behind {
			return true
		}
	}
	return false
}

// runRound distributes target to conns with the two-phase protocol:
// certify (or drain), bounded-fanout prepare, ack barrier, commit.
func (s *Source) runRound(target *CompiledEpoch, conns []*agentConn) {
	tm := s.opts.Telemetry
	tm.RoundsStarted.Inc()

	s.mu.Lock()
	committed := s.committed
	s.mu.Unlock()

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

	// Prepare fanout: bounded workers push the epoch to every agent and
	// collect the prepare acks.
	barrierStart := time.Now()
	prepared := make([]bool, len(conns))
	s.fanOut(len(conns), func(i int) {
		prepared[i] = s.pushToAgent(conns[i], target, committed, drain)
	})
	tm.BarrierNanos.ObserveSince(barrierStart)

	// The ack barrier: only agents that prepared take part in the
	// commit; stragglers were quarantined above and re-sync next round.
	// The commits fan out like the prepares — each is one write and one
	// awaited ack — and their outcomes are booked in agent-ID order.
	commitStart := time.Now()
	commitErrs := make([]error, len(conns))
	s.fanOut(len(conns), func(i int) {
		if prepared[i] {
			commitErrs[i] = s.commitAgent(conns[i], target)
		}
	})
	committedAgents := 0
	for i, a := range conns {
		switch {
		case !prepared[i]:
		case commitErrs[i] != nil:
			s.quarantine(a, commitErrs[i])
		default:
			committedAgents++
		}
	}
	tm.CommitNanos.ObserveSince(commitStart)

	s.mu.Lock()
	s.committed = target
	s.round++
	s.mu.Unlock()
	s.updateQuarantineGauge()
	tm.EpochsCommitted.Inc()
	tm.FleetEpoch.Set(int64(target.Seq))
	tm.Events.Emit("distrib_round", map[string]int64{
		"epoch":     int64(target.Seq),
		"agents":    int64(len(conns)),
		"committed": int64(committedAgents),
		"drained":   boolInt(drain),
	})
	s.logf("distrib: epoch %d committed on %d/%d agents (drain=%v)", target.Seq, committedAgents, len(conns), drain)
}

// fanOut calls do(i) for every i in [0, n) on at most Options.Workers
// goroutines and returns when all calls have.
func (s *Source) fanOut(n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(s.opts.Workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
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
	a.mu.Lock()
	current := a.hasAcked && a.acked == target.Seq
	a.mu.Unlock()
	if current {
		return false // nothing to push, nothing to commit
	}
	var lastErr error
	for attempt := 0; attempt <= s.opts.Retries; attempt++ {
		if attempt > 0 {
			s.opts.Telemetry.Retries.Inc()
			time.Sleep(s.opts.Backoff * time.Duration(attempt))
		}
		lastErr = s.sendEpoch(a, target, committed, drain)
		if lastErr == nil {
			a.mu.Lock()
			a.quarantined = false
			a.mu.Unlock()
			return true
		}
		if errors.Is(lastErr, errNak) {
			// The agent rejected the push (corrupt frame, stale base or
			// checksum mismatch): re-sync from a full snapshot.
			s.opts.Telemetry.Naks.Inc()
			a.mu.Lock()
			a.forceFull = true
			a.mu.Unlock()
		}
		a.mu.Lock()
		dead := a.closed
		a.mu.Unlock()
		if dead {
			return false
		}
	}
	s.quarantine(a, lastErr)
	return false
}

// quarantine excludes an agent from the current barrier; it stays
// connected and is retried (from a full snapshot) on following rounds.
func (s *Source) quarantine(a *agentConn, err error) {
	a.mu.Lock()
	a.quarantined = true
	a.forceFull = true
	a.mu.Unlock()
	s.updateQuarantineGauge()
	s.logf("distrib: agent %s quarantined: %v", a.id, err)
}

func (s *Source) updateQuarantineGauge() {
	s.mu.Lock()
	n := 0
	for a := range s.conns {
		a.mu.Lock()
		if a.quarantined {
			n++
		}
		a.mu.Unlock()
	}
	s.mu.Unlock()
	s.opts.Telemetry.Quarantined.Set(int64(n))
}

// sendEpoch writes one complete push (begin, tables, prepare) to the
// agent and waits for its prepare ack.
func (s *Source) sendEpoch(a *agentConn, target, committed *CompiledEpoch, drain bool) error {
	tm := s.opts.Telemetry
	rows := target.ownedRows(a.owned)

	a.mu.Lock()
	// Delta pushes need the agent to sit exactly on the last committed
	// epoch with an identical row space; anything else gets a snapshot.
	full := a.forceFull || !a.hasAcked || committed == nil || a.acked != committed.Seq ||
		committed.Cols != target.Cols || !sameRowSpace(committed, target, rows)
	agentAcked, agentHasAcked := a.acked, a.hasAcked
	a.mu.Unlock()

	// An agent holding any previous epoch whose union with the target
	// was not certified (stale base, or a refuted round) must drain.
	drainAgent := agentHasAcked && (drain || committed == nil || agentAcked != committed.Seq)

	begin := Begin{Rows: len(rows), Cols: target.Cols}
	var flags uint8
	var frames []Frame
	if full {
		flags |= FlagFull
		begin.Frames = len(rows)
		// Rows are encoded from the table when a full sync is due, into
		// one buffer of exactly their summed size.
		buf := make([]byte, 0, target.fullSize(rows))
		for _, r := range rows {
			start := len(buf)
			buf = AppendLFT(buf, target.Switches[r], target.LFTs[r])
			frames = append(frames, Frame{Type: MsgLFT, Epoch: target.Seq, Payload: buf[start:]})
		}
		tm.FullSyncs.Inc()
	} else {
		begin.Base, begin.HasBase = committed.Seq, true
		begin.Frames = 1
		entries := target.deltaEntries(committed, rows)
		payload := routing.EncodeDelta(nil, len(rows), target.Cols, entries)
		frames = append(frames, Frame{Type: MsgDelta, Epoch: target.Seq, Payload: payload})
		if fullSize := target.fullSize(rows); fullSize > 0 {
			tm.DeltaPermille.Observe(int64(len(payload)) * 1000 / int64(fullSize))
		}
	}
	if drainAgent {
		flags |= FlagDrain
	}

	a.drainAcks()
	pushStart := time.Now()
	sent := 0
	write := func(f Frame) error {
		a.conn.SetWriteDeadline(time.Now().Add(s.opts.AckTimeout))
		n, err := WriteFrame(a.conn, f)
		sent += n
		return err
	}
	if err := write(Frame{Type: MsgBegin, Flags: flags, Epoch: target.Seq, Payload: AppendBegin(nil, begin)}); err != nil {
		return err
	}
	for _, f := range frames {
		if err := write(f); err != nil {
			return err
		}
	}
	if err := write(Frame{Type: MsgPrepare, Flags: flags, Epoch: target.Seq, Payload: AppendPrepare(nil, target.rowSums(rows))}); err != nil {
		return err
	}
	tm.FramesSent.Add(int64(len(frames) + 2))
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
	a.conn.SetWriteDeadline(time.Now().Add(s.opts.AckTimeout))
	if _, err := WriteFrame(a.conn, Frame{Type: MsgCommit, Epoch: target.Seq}); err != nil {
		return err
	}
	s.opts.Telemetry.FramesSent.Inc()
	if _, err := a.awaitAck(target.Seq, AckCommitted, s.opts.AckTimeout); err != nil {
		return err
	}
	a.mu.Lock()
	a.acked, a.hasAcked = target.Seq, true
	a.forceFull = false
	a.quarantined = false
	a.mu.Unlock()
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
