// Package agent implements the switch-side endpoint of the distrib
// protocol: a simulated switch agent that owns a subset of the fabric's
// forwarding rows, stages pushed epochs (full snapshots or deltas),
// validates them against the source's per-row checksums, and swaps them
// in atomically on commit. A frame or delta that fails its checksum is
// NAKed — the agent never installs a partial or torn table; the source
// answers a NAK with a full snapshot re-sync.
package agent

import (
	"context"
	"errors"
	"fmt"
	"net"
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
type staging struct {
	epoch    uint64
	flags    uint8
	begin    distrib.Begin
	full     bool
	switches []graph.NodeID
	rows     [][]graph.ChannelID
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
	stage    *staging
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
	a.stage = nil
	a.draining = false
	a.mu.Unlock()
	if _, err := distrib.WriteFrame(conn, distrib.Frame{Type: distrib.MsgHello, Payload: distrib.AppendHello(nil, hello)}); err != nil {
		return false, err
	}

	for {
		f, err := distrib.ReadFrame(conn, distrib.DefaultMaxFrame)
		if err != nil {
			if errors.Is(err, distrib.ErrFrameCorrupt) {
				// The frame is lost but the stream survives: drop any
				// staged push (it can no longer complete) and NAK so the
				// source re-syncs us from a full snapshot.
				a.mu.Lock()
				a.stage = nil
				a.draining = false
				a.stats.CorruptFrames++
				a.mu.Unlock()
				a.nak(conn, f.Epoch, "corrupt frame")
				continue
			}
			return heard, err
		}
		heard = true
		if err := a.handle(conn, f); err != nil {
			return heard, err
		}
	}
}

// nak rejects the current push.
func (a *Agent) nak(conn net.Conn, epoch uint64, reason string) {
	a.mu.Lock()
	a.stats.Naks++
	a.stage = nil
	a.draining = false
	a.mu.Unlock()
	a.logf("agent %s: nak epoch %d: %s", a.opts.ID, epoch, reason)
	a.writeAck(conn, epoch, distrib.Ack{Phase: distrib.AckNak, Reason: reason})
}

func (a *Agent) writeAck(conn net.Conn, epoch uint64, ack distrib.Ack) {
	distrib.WriteFrame(conn, distrib.Frame{Type: distrib.MsgAck, Epoch: epoch, Payload: distrib.AppendAck(nil, ack)})
}

// handle processes one valid frame.
func (a *Agent) handle(conn net.Conn, f distrib.Frame) error {
	switch f.Type {
	case distrib.MsgBegin:
		b, err := distrib.ParseBegin(f.Payload)
		if err != nil {
			a.nak(conn, f.Epoch, fmt.Sprintf("bad begin: %v", err))
			return nil
		}
		a.begin(conn, f, b)
	case distrib.MsgLFT:
		sw, row, err := distrib.ParseLFT(f.Payload)
		if err != nil {
			a.nak(conn, f.Epoch, fmt.Sprintf("bad lft: %v", err))
			return nil
		}
		a.stageLFT(conn, f.Epoch, sw, row)
	case distrib.MsgDelta:
		a.stageDelta(conn, f.Epoch, f.Payload)
	case distrib.MsgPrepare:
		sums, err := distrib.ParsePrepare(f.Payload)
		if err != nil {
			a.nak(conn, f.Epoch, fmt.Sprintf("bad prepare: %v", err))
			return nil
		}
		a.prepare(conn, f.Epoch, sums)
	case distrib.MsgCommit:
		a.commit(conn, f.Epoch)
	}
	return nil
}

// begin opens a new staging area, replacing any previous one (the
// source retries by restarting the push).
func (a *Agent) begin(conn net.Conn, f distrib.Frame, b distrib.Begin) {
	a.mu.Lock()
	full := f.Flags&distrib.FlagFull != 0
	st := &staging{epoch: f.Epoch, flags: f.Flags, begin: b, full: full}
	if full {
		st.rows = make([][]graph.ChannelID, 0, b.Rows)
		st.switches = make([]graph.NodeID, 0, b.Rows)
	} else {
		// A delta transforms the installed epoch in place; the base must
		// be exactly what this agent holds.
		if !a.hasEpoch || a.epoch != b.Base || !b.HasBase {
			a.mu.Unlock()
			a.nak(conn, f.Epoch, fmt.Sprintf("stale delta base %d (installed %d/%v)", b.Base, a.epoch, a.hasEpoch))
			return
		}
		if b.Rows != len(a.rows) || b.Cols != a.cols() {
			a.mu.Unlock()
			a.nak(conn, f.Epoch, "delta shape mismatch")
			return
		}
		st.switches = append([]graph.NodeID(nil), a.switches...)
		st.rows = make([][]graph.ChannelID, len(a.rows))
		for i, r := range a.rows {
			st.rows[i] = append([]graph.ChannelID(nil), r...)
		}
	}
	a.stage = st
	a.mu.Unlock()
}

// cols returns the installed column count (mu held).
func (a *Agent) cols() int {
	if len(a.rows) == 0 {
		return 0
	}
	return len(a.rows[0])
}

func (a *Agent) stageLFT(conn net.Conn, epoch uint64, sw graph.NodeID, row []graph.ChannelID) {
	a.mu.Lock()
	st := a.stage
	if st == nil || st.epoch != epoch || !st.full || st.prepared {
		a.mu.Unlock()
		a.nak(conn, epoch, "lft without matching begin")
		return
	}
	if len(st.rows) >= st.begin.Rows || len(row) != st.begin.Cols {
		a.mu.Unlock()
		a.nak(conn, epoch, "lft outside declared shape")
		return
	}
	if n := len(st.switches); n > 0 && st.switches[n-1] >= sw {
		a.mu.Unlock()
		a.nak(conn, epoch, "lft rows not in ascending switch order")
		return
	}
	st.switches = append(st.switches, sw)
	st.rows = append(st.rows, row)
	st.got++
	a.mu.Unlock()
}

func (a *Agent) stageDelta(conn net.Conn, epoch uint64, payload []byte) {
	rows, cols, entries, err := routing.DecodeDelta(payload)
	a.mu.Lock()
	st := a.stage
	if st == nil || st.epoch != epoch || st.full || st.prepared {
		a.mu.Unlock()
		a.nak(conn, epoch, "delta without matching begin")
		return
	}
	if err != nil {
		a.mu.Unlock()
		a.nak(conn, epoch, fmt.Sprintf("delta rejected: %v", err))
		return
	}
	if rows != st.begin.Rows || cols != st.begin.Cols {
		a.mu.Unlock()
		a.nak(conn, epoch, "delta shape mismatch")
		return
	}
	for _, e := range entries {
		if int(e.Row) >= len(st.rows) || int(e.Col) >= cols {
			a.mu.Unlock()
			a.nak(conn, epoch, "delta entry out of range")
			return
		}
		st.rows[e.Row][e.Col] = e.Next
	}
	st.got++
	a.mu.Unlock()
}

// prepare validates the staged rows against the source's authoritative
// checksums and acks; a drained push pauses forwarding from here until
// commit.
func (a *Agent) prepare(conn net.Conn, epoch uint64, sums []distrib.RowSum) {
	a.mu.Lock()
	st := a.stage
	if st == nil || st.epoch != epoch {
		a.mu.Unlock()
		a.nak(conn, epoch, "prepare without matching begin")
		return
	}
	if st.got != st.begin.Frames || len(st.rows) != st.begin.Rows {
		a.mu.Unlock()
		a.nak(conn, epoch, fmt.Sprintf("incomplete push: %d/%d frames, %d/%d rows",
			st.got, st.begin.Frames, len(st.rows), st.begin.Rows))
		return
	}
	if len(sums) != len(st.rows) {
		a.mu.Unlock()
		a.nak(conn, epoch, "prepare row count mismatch")
		return
	}
	crcs := make([]uint32, len(st.rows))
	for i, row := range st.rows {
		if sums[i].Switch != st.switches[i] {
			a.mu.Unlock()
			a.nak(conn, epoch, fmt.Sprintf("prepare switch %d, staged %d", sums[i].Switch, st.switches[i]))
			return
		}
		crcs[i] = distrib.RowCRC(row)
		if crcs[i] != sums[i].CRC {
			a.mu.Unlock()
			a.nak(conn, epoch, fmt.Sprintf("row %d checksum mismatch", sums[i].Switch))
			return
		}
	}
	st.prepared, st.crcs = true, crcs
	if st.flags&distrib.FlagDrain != 0 {
		a.draining = true
	}
	fleet := distrib.FleetCRC(crcs)
	a.mu.Unlock()
	a.writeAck(conn, epoch, distrib.Ack{Phase: distrib.AckPrepared, FleetCRC: fleet})
}

// commit atomically swaps the prepared staging in as the installed
// state.
func (a *Agent) commit(conn net.Conn, epoch uint64) {
	a.mu.Lock()
	st := a.stage
	if st == nil || st.epoch != epoch || !st.prepared {
		a.mu.Unlock()
		a.nak(conn, epoch, "commit without prepared epoch")
		return
	}
	a.switches = st.switches
	a.rows = st.rows
	a.crcs = st.crcs
	a.epoch, a.hasEpoch = epoch, true
	a.stage = nil
	a.draining = false
	a.stats.Commits++
	if st.full {
		a.stats.FullSyncs++
	} else {
		a.stats.DeltaInstalls++
	}
	if st.flags&distrib.FlagDrain != 0 {
		a.stats.Drains++
	}
	fleet := distrib.FleetCRC(a.crcs)
	a.mu.Unlock()
	a.writeAck(conn, epoch, distrib.Ack{Phase: distrib.AckCommitted, FleetCRC: fleet})
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
