// Package agent implements the switch-side endpoint of the distrib
// protocol: a simulated switch agent that owns a subset of the fabric's
// forwarding rows, stages pushed epochs (deltas on its installed epoch,
// or full snapshots: deltas from an empty table), validates them against
// the source's per-row checksums, and swaps them in atomically on
// commit. A frame or delta that fails its checksum is NAKed — the agent
// never installs a partial or torn table; the source answers a NAK with a
// full snapshot re-sync.
package agent

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Options configures an Agent.
type Options struct {
	// ID identifies the agent to the source (telemetry and logs only).
	ID string
	// Switches lists the forwarding rows this agent owns; nil subscribes
	// to every switch in the fabric.
	Switches []graph.NodeID
	// Logf, when non-nil, receives one line per notable protocol event.
	Logf func(format string, args ...any)
}

// Stats counts an agent's protocol outcomes.
type Stats struct {
	// Commits is the number of epochs installed; FullSyncs and
	// DeltaInstalls split them by push kind.
	Commits, FullSyncs, DeltaInstalls int
	// Naks counts pushes the agent rejected; CorruptFrames the frames
	// dropped for checksum failures.
	Naks, CorruptFrames int
	// Drains counts installs that went through the drained (forwarding
	// paused) path.
	Drains int
	// Failovers counts switches to a different publisher address.
	Failovers int
}

// staging is an epoch push being assembled; it becomes installable only
// after MsgPrepare validates every staged row.
//
// A push without a base (a full sync) appends its entries to next in
// position order, so the staging grows with the entries received; the
// prepare cuts next into rows, one per switch its checksums name.
//
// A delta on a base stages copy-on-write: rows starts as the installed
// row set, each row aliasing the installed one, and a row is copied the
// first time an entry writes it (copied), so the installed rows are never
// written and a delta copies only the rows it touches. The copy goes
// into a row from the agent's spare list when it holds one. The prepare
// re-sums every staged row, aliased or copied, so an installed row that
// changed in memory since its own prepare is caught there as before.
//
// The agent keeps one staging and reuses it push after push. Its rows
// and crcs headers are double-buffered with the installed ones: commit
// swaps them, and the next push stages into the headers the last commit
// replaced (the row slices those point to are the spare list's business,
// not the headers').
type staging struct {
	epoch    uint64
	flags    uint8
	begin    distrib.Begin
	switches []graph.NodeID
	rows     [][]graph.ChannelID
	copied   []bool            // base only: rows[i] is the staging's own
	next     []graph.ChannelID // no base: the entries so far, row-major
	got      int
	// prepared freezes the staging: a table frame after the prepare is
	// refused, so the rows commit swaps in are the rows that were
	// checked, and crcs — the row checksums the prepare verified — are
	// theirs.
	prepared bool
	crcs     []uint32
}

// Agent is one switch agent. Serve drives the protocol on a connection;
// the query methods are safe for concurrent use.
type Agent struct {
	opts Options

	mu sync.Mutex
	// Installed state: the committed epoch's rows for the owned
	// switches, in ascending switch order.
	epoch    uint64
	hasEpoch bool
	switches []graph.NodeID
	rows     [][]graph.ChannelID
	crcs     []uint32
	draining bool
	stats    Stats
	// stage is the push being staged, nil when none: staged when it is
	// in use. No query hands out rows or crcs, so the headers commit
	// retires are free for the next staging.
	stage  *staging
	staged staging
	// entries is the delta decoder's buffer and sums the prepare
	// parser's, reused from frame to frame.
	entries []routing.DeltaEntry
	sums    []distrib.RowSum
	// spare keeps rows no one reads any more for stageDelta to copy
	// into: the installed rows a committed delta replaced and the rows an
	// abandoned delta staging copied. A staging copies each row at most
	// once, into a spare row while there is one, so the spare rows and
	// the staging's copies together never outnumber the installed rows;
	// a full sync, which may change the shape, empties the list.
	spare [][]graph.ChannelID
}

// New creates an agent.
func New(opts Options) *Agent {
	return &Agent{opts: opts}
}

func (a *Agent) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

// Installed returns the committed epoch (ok=false before the first
// commit).
func (a *Agent) Installed() (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch, a.hasEpoch
}

// Snapshot returns the committed epoch and the aggregate checksum of
// its installed rows — the pair a torn-install check compares against
// the source's record.
func (a *Agent) Snapshot() (epoch uint64, fleetCRC uint32, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch, distrib.FleetCRC(a.crcs), a.hasEpoch
}

// Forwarding reports whether the agent is forwarding (false while a
// drained install is in flight).
func (a *Agent) Forwarding() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.draining
}

// Stats returns a copy of the protocol counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// NextHop returns the installed next-hop channel of switch sw for
// destination column col (graph.NoChannel when unknown).
func (a *Agent) NextHop(sw graph.NodeID, col int) graph.ChannelID {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, owned := range a.switches {
		if owned == sw {
			if col >= 0 && col < len(a.rows[i]) {
				return a.rows[i][col]
			}
			return graph.NoChannel
		}
	}
	return graph.NoChannel
}

// Serve speaks the distrib protocol on conn until the stream fails or
// the context is done. The agent's installed state survives across
// connections, so a reconnect resumes with deltas.
func (a *Agent) Serve(ctx context.Context, conn net.Conn) error {
	_, err := a.serve(ctx, conn)
	return err
}

// serve is Serve; heard reports whether the source got as far as one
// valid frame.
func (a *Agent) serve(ctx context.Context, conn net.Conn) (heard bool, err error) {
	defer conn.Close()
	if ctx != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				conn.Close()
			case <-done:
			}
		}()
	}

	a.mu.Lock()
	hello := distrib.Hello{ID: a.opts.ID, Switches: a.opts.Switches, Acked: a.epoch, HasAcked: a.hasEpoch}
	a.dropStage()
	a.draining = false
	a.mu.Unlock()
	if _, err := distrib.WriteFrame(conn, distrib.Frame{Type: distrib.MsgHello, Payload: distrib.AppendHello(nil, hello)}); err != nil {
		return false, err
	}

	// One frame buffer and one ack buffer per connection: a payload is
	// read before the next frame overwrites it, and what the agent keeps
	// of it is a copy.
	var buf, msg, out []byte
	for {
		var f distrib.Frame
		f, buf, err = distrib.ReadFrame(conn, buf)
		// A corrupt frame is lost but the stream survives: it is refused
		// like a bad push, so the source re-syncs us from a full snapshot.
		corrupt := errors.Is(err, distrib.ErrFrameCorrupt)
		if err != nil && !corrupt {
			return heard, err
		}
		heard = heard || !corrupt
		ack, reply := a.step(f, corrupt)
		if !reply {
			continue
		}
		if ack.Phase == distrib.AckNak {
			a.logf("agent %s: nak epoch %d: %s", a.opts.ID, f.Epoch, ack.Reason)
		}
		msg = distrib.AppendAck(msg[:0], ack)
		out = distrib.AppendFrame(out[:0], distrib.Frame{Type: distrib.MsgAck, Epoch: f.Epoch, Payload: msg})
		conn.Write(out)
	}
}

// step answers one frame, or a frame lost to corruption, under the
// agent's lock: the ack to write, if the frame draws one. begin,
// stageDelta, prepare and commit return a refusal reason, "" when they
// accept the frame, and a refusal is booked here alone: it counts a NAK,
// drops the staging and resumes forwarding.
func (a *Agent) step(f distrib.Frame, corrupt bool) (ack distrib.Ack, reply bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var reason string
	switch {
	case corrupt:
		a.stats.CorruptFrames++
		reason = "corrupt frame"
	case f.Type == distrib.MsgBegin:
		reason = a.begin(f)
	case f.Type == distrib.MsgDelta:
		reason = a.stageDelta(f.Epoch, f.Payload)
	case f.Type == distrib.MsgPrepare:
		ack.Phase = distrib.AckPrepared
		ack.FleetCRC, reason = a.prepare(f.Epoch, f.Payload)
	case f.Type == distrib.MsgCommit:
		ack.Phase = distrib.AckCommitted
		ack.FleetCRC, reason = a.commit(f.Epoch)
	}
	if reason == "" {
		return ack, ack.Phase != 0
	}
	a.stats.Naks++
	a.dropStage()
	a.draining = false
	return distrib.Ack{Phase: distrib.AckNak, Reason: reason}, true
}

// begin opens a new staging area, replacing any previous one (the
// source retries by restarting the push).
func (a *Agent) begin(f distrib.Frame) string {
	b, err := distrib.ParseBegin(f.Payload)
	if err != nil {
		return fmt.Sprintf("bad begin: %v", err)
	}
	if b.HasBase {
		// A delta transforms the installed epoch; the base must be
		// exactly what this agent holds.
		if !a.hasEpoch || a.epoch != b.Base {
			return fmt.Sprintf("stale delta base %d (installed %d/%v)", b.Base, a.epoch, a.hasEpoch)
		}
		if b.Rows != len(a.rows) || b.Cols != a.cols() {
			return "delta shape mismatch"
		}
	}
	a.dropStage()
	st := &a.staged
	*st = staging{
		epoch: f.Epoch, flags: f.Flags, begin: b,
		// The headers the last commit retired; next is not reused: a
		// committed full sync's rows are views of it.
		rows: st.rows[:0], copied: st.copied[:0], crcs: st.crcs[:0],
	}
	if b.HasBase {
		st.switches = a.switches // a delta never changes them
		st.rows = append(st.rows, a.rows...)
		st.copied = append(st.copied, make([]bool, len(a.rows))...)
	}
	a.stage = st
	return ""
}

// dropStage abandons the staged push, if any, and keeps the rows a delta
// staging copied (mu held).
func (a *Agent) dropStage() {
	if st := a.stage; st != nil {
		a.keepCopied(st.copied, st.rows)
	}
	a.stage = nil
}

// keepCopied puts rows[i] on the spare list for every copied[i]: rows a
// delta staging copied, or the installed rows they replaced (mu held).
func (a *Agent) keepCopied(copied []bool, rows [][]graph.ChannelID) {
	for i, own := range copied {
		if own {
			a.spare = append(a.spare, rows[i])
		}
	}
}

// copyRow returns a copy of row, made in a spare row when one is kept
// (mu held).
func (a *Agent) copyRow(row []graph.ChannelID) []graph.ChannelID {
	var dst []graph.ChannelID
	if n := len(a.spare); n > 0 {
		dst = a.spare[n-1][:0]
		a.spare[n-1] = nil
		a.spare = a.spare[:n-1]
	}
	return append(dst, row...)
}

// cols returns the installed column count (mu held).
func (a *Agent) cols() int {
	if len(a.rows) == 0 {
		return 0
	}
	return len(a.rows[0])
}

// stageDelta writes one MsgDelta frame's entries into the staging.
func (a *Agent) stageDelta(epoch uint64, payload []byte) string {
	rows, cols, entries, err := routing.AppendDecodeDelta(a.entries[:0], payload)
	a.entries = entries
	st := a.stage
	switch {
	case st == nil || st.epoch != epoch || st.prepared:
		return "delta without matching begin"
	case err != nil:
		return fmt.Sprintf("delta rejected: %v", err)
	case rows != st.begin.Rows || cols != st.begin.Cols:
		return "delta shape mismatch"
	}
	if !st.begin.HasBase {
		// Each entry continues where the last one stopped, so the staging
		// grows by what this frame carried.
		st.next = slices.Grow(st.next, len(entries))
		for _, e := range entries {
			if int64(e.Row)*int64(cols)+int64(e.Col) != int64(len(st.next)) {
				return fmt.Sprintf("full sync skips to entry (%d,%d) after %d entries", e.Row, e.Col, len(st.next))
			}
			st.next = append(st.next, e.Next)
		}
		st.got++
		return ""
	}
	for _, e := range entries {
		if int(e.Row) >= len(st.rows) || int(e.Col) >= cols {
			return "delta entry out of range"
		}
		if !st.copied[e.Row] {
			st.rows[e.Row] = a.copyRow(st.rows[e.Row])
			st.copied[e.Row] = true
		}
		st.rows[e.Row][e.Col] = e.Next
	}
	st.got++
	return ""
}

// prepare validates the staged rows against the source's authoritative
// checksums, the MsgPrepare payload, and returns the staging's fleet CRC;
// a drained push pauses forwarding from here until commit.
func (a *Agent) prepare(epoch uint64, payload []byte) (uint32, string) {
	sums, err := distrib.ParsePrepare(a.sums[:0], payload)
	a.sums = sums
	if err != nil {
		return 0, fmt.Sprintf("bad prepare: %v", err)
	}
	st := a.stage
	if st == nil || st.epoch != epoch {
		return 0, "prepare without matching begin"
	}
	rows, cols := st.begin.Rows, st.begin.Cols
	if st.got != st.begin.Frames || (!st.begin.HasBase && int64(len(st.next)) != int64(rows)*int64(cols)) {
		return 0, fmt.Sprintf("incomplete push: %d/%d frames", st.got, st.begin.Frames)
	}
	if len(sums) != rows {
		return 0, "prepare row count mismatch"
	}
	if !st.begin.HasBase {
		// A full sync's switches are the ones its checksums name.
		st.switches = make([]graph.NodeID, rows)
		st.rows = slices.Grow(st.rows[:0], rows)
		for i, s := range sums {
			if i > 0 && s.Switch <= sums[i-1].Switch {
				return 0, "prepare switches not in ascending order"
			}
			st.switches[i] = s.Switch
			st.rows = append(st.rows, st.next[i*cols:(i+1)*cols:(i+1)*cols])
		}
	}
	st.crcs = slices.Grow(st.crcs[:0], len(st.rows))[:len(st.rows)]
	for i, row := range st.rows {
		if sums[i].Switch != st.switches[i] {
			return 0, fmt.Sprintf("prepare switch %d, staged %d", sums[i].Switch, st.switches[i])
		}
		st.crcs[i] = distrib.RowCRC(row)
		if st.crcs[i] != sums[i].CRC {
			return 0, fmt.Sprintf("row %d checksum mismatch", sums[i].Switch)
		}
	}
	st.prepared = true
	if st.flags&distrib.FlagDrain != 0 {
		a.draining = true
	}
	return distrib.FleetCRC(st.crcs), ""
}

// commit atomically swaps the prepared staging in as the installed
// state and returns its fleet CRC.
func (a *Agent) commit(epoch uint64) (uint32, string) {
	st := a.stage
	if st == nil || st.epoch != epoch || !st.prepared {
		return 0, "commit without prepared epoch"
	}
	if !st.begin.HasBase {
		// Every row is replaced, perhaps by rows of another shape: the
		// spare rows go with the old ones.
		clear(a.spare)
		a.spare = a.spare[:0]
	}
	a.keepCopied(st.copied, a.rows)
	a.switches = st.switches
	// The staged headers become the installed ones, and the installed
	// ones the next staging's.
	a.rows, st.rows = st.rows, a.rows
	a.crcs, st.crcs = st.crcs, a.crcs
	a.epoch, a.hasEpoch = epoch, true
	a.stage = nil
	a.draining = false
	a.stats.Commits++
	if !st.begin.HasBase {
		a.stats.FullSyncs++
	} else {
		a.stats.DeltaInstalls++
	}
	if st.flags&distrib.FlagDrain != 0 {
		a.stats.Drains++
	}
	return distrib.FleetCRC(a.crcs), ""
}

// DialMulti connects to the first reachable publisher in addrs and
// serves the protocol, rotating to the next address whenever the dial or
// the stream fails — the replicated-control-plane failover path.
// Installed state (epoch, rows, CRCs) persists across publishers: on the
// new connection the agent Hello's its last acked epoch and the new
// publisher re-syncs it by CRC (a delta when it can serve one, a full
// checksummed snapshot otherwise), so a mid-epoch publisher crash never
// leaves a torn table. Rotation is immediate after a publisher that
// sent something; a full sweep of addrs in which none did — refused
// dials, or connections dropped before their first frame — sleeps for
// backoff. Returns when ctx is done.
func (a *Agent) DialMulti(ctx context.Context, addrs []string, backoff time.Duration) error {
	if len(addrs) == 0 {
		return errors.New("agent: no publisher addresses")
	}
	if backoff <= 0 {
		backoff = time.Second
	}
	cur, last, silent := 0, -1, 0
	for {
		idx := cur % len(addrs)
		heard := false
		conn, err := net.Dial("tcp", addrs[idx])
		if err == nil {
			if last >= 0 && last != idx {
				a.mu.Lock()
				a.stats.Failovers++
				a.mu.Unlock()
				a.logf("agent %s: failed over to publisher %s", a.opts.ID, addrs[idx])
			}
			last = idx
			heard, err = a.serve(ctx, conn)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		cur++
		a.logf("agent %s: publisher %s lost (%v), trying %s", a.opts.ID, addrs[idx], err, addrs[cur%len(addrs)])
		if heard {
			silent = 0
		} else if silent++; silent >= len(addrs) {
			silent = 0
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
		}
	}
}
