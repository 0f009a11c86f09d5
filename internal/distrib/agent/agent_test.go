package agent

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/minhop"
	"repro/internal/topology"
)

// TestCommitInstallsVerifiedCRCs: the row checksums an agent reports
// after a commit are the ones its prepare verified against the source's,
// so its Snapshot equals the source's OwnedCRC — and a table frame that
// arrives between the two is refused with the whole push, because the
// staged rows would no longer be the rows that were checked.
func TestCommitInstallsVerifiedCRCs(t *testing.T) {
	tp := topology.Torus3D(3, 3, 2, 1, 1)
	res, err := minhop.MinHop{}.Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := distrib.Compile(distrib.Epoch{Seq: 4, Net: tp.Net, Result: res})
	rows := []int{1, 4, 7}
	var owned []graph.NodeID
	var sums []distrib.RowSum
	for _, r := range rows {
		owned = append(owned, c.Switches[r])
		sums = append(sums, distrib.RowSum{Switch: c.Switches[r], CRC: c.CRCs[r]})
	}
	want := c.OwnedCRC(owned)

	a := New(Options{ID: "t", Switches: owned})
	srcSide, agSide := net.Pipe()
	defer srcSide.Close()
	go a.Serve(context.Background(), agSide)
	srcSide.SetDeadline(time.Now().Add(30 * time.Second))
	if f, _, err := distrib.ReadFrame(srcSide, nil); err != nil || f.Type != distrib.MsgHello {
		t.Fatalf("hello: %v %v", f.Type, err)
	}
	send := func(f distrib.Frame) {
		t.Helper()
		if _, err := distrib.WriteFrame(srcSide, f); err != nil {
			t.Fatal(err)
		}
	}
	sendAcked := func(f distrib.Frame) distrib.Ack {
		t.Helper()
		send(f)
		r, _, err := distrib.ReadFrame(srcSide, nil)
		if err != nil || r.Type != distrib.MsgAck || r.Epoch != f.Epoch {
			t.Fatalf("ack of %v: %v epoch %d, %v", f.Type, r.Type, r.Epoch, err)
		}
		ack, err := distrib.ParseAck(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}

	// Epoch 4, a full push.
	full := fullSync(c, rows)
	for _, f := range full[:len(full)-1] {
		send(f)
	}
	prepare := distrib.AppendPrepare(nil, sums)
	if got := sendAcked(full[len(full)-1]); got.Phase != distrib.AckPrepared || got.FleetCRC != want {
		t.Fatalf("prepare ack %+v, want prepared with fleet CRC %#x", got, want)
	}
	if got := sendAcked(distrib.Frame{Type: distrib.MsgCommit, Epoch: 4}); got.Phase != distrib.AckCommitted || got.FleetCRC != want {
		t.Fatalf("commit ack %+v, want committed with fleet CRC %#x", got, want)
	}
	if ep, crc, ok := a.Snapshot(); !ok || ep != 4 || crc != want {
		t.Fatalf("snapshot (%d, %#x, %v), want (4, %#x, true)", ep, crc, ok, want)
	}

	// Epoch 5, an empty delta on 4, verified — and then one more delta
	// frame that rewrites an entry.
	send(distrib.Frame{Type: distrib.MsgBegin, Epoch: 5,
		Payload: distrib.AppendBegin(nil, distrib.Begin{Base: 4, HasBase: true, Rows: len(rows), Cols: c.Cols, Frames: 1})})
	send(distrib.Frame{Type: distrib.MsgDelta, Epoch: 5, Payload: routing.EncodeDelta(nil, len(rows), c.Cols, nil)})
	if got := sendAcked(distrib.Frame{Type: distrib.MsgPrepare, Epoch: 5, Payload: prepare}); got.Phase != distrib.AckPrepared || got.FleetCRC != want {
		t.Fatalf("delta prepare ack %+v, want prepared with fleet CRC %#x", got, want)
	}
	late := []routing.DeltaEntry{{Row: 0, Col: 0, Next: c.LFTs[rows[0]][0] + 1}}
	if got := sendAcked(distrib.Frame{Type: distrib.MsgDelta, Epoch: 5, Payload: routing.EncodeDelta(nil, len(rows), c.Cols, late)}); got.Phase != distrib.AckNak {
		t.Fatalf("a table frame after the prepare was answered %+v, want a NAK", got)
	}
	if got := sendAcked(distrib.Frame{Type: distrib.MsgCommit, Epoch: 5}); got.Phase != distrib.AckNak {
		t.Fatalf("the commit of the refused push was answered %+v, want a NAK", got)
	}
	if ep, crc, ok := a.Snapshot(); !ok || ep != 4 || crc != want {
		t.Fatalf("snapshot after the refused push (%d, %#x, %v), want (4, %#x, true)", ep, crc, ok, want)
	}
	if got, want := a.NextHop(owned[0], 0), c.LFTs[rows[0]][0]; got != want {
		t.Fatalf("the refused frame reached the installed table: NextHop = %d, want %d", got, want)
	}
}

// TestDialBacksOffFromSilentPublishers: a publisher that accepts and
// drops the stream before its first frame (a closed distrib.Source
// behind a listener that still accepts) is a failed publisher, and a
// sweep of nothing but such publishers sleeps for the backoff. The dial
// used to count as a success and the agent redialled with no sleep at
// all.
func TestDialBacksOffFromSilentPublishers(t *testing.T) {
	const backoff = 20 * time.Millisecond
	for _, publishers := range []int{1, 3} {
		var dials atomic.Int64
		addrs := make([]string, publishers)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addrs[i] = ln.Addr().String()
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					dials.Add(1)
					conn.Close()
				}
			}()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*backoff)
		err := New(Options{ID: "t"}).DialMulti(ctx, addrs, backoff)
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("%d publishers: DialMulti = %v, want the context's deadline", publishers, err)
		}
		// One sweep per backoff, and the one under way at the deadline.
		if got, most := dials.Load(), int64(11*publishers); got < int64(publishers) || got > most {
			t.Errorf("%d publishers: %d dials in 10 backoffs, want a full sweep and at most %d", publishers, got, most)
		}
	}
}

// pipeAgent serves a on one end of a pipe and returns the other end, the
// agent's hello read.
func pipeAgent(t *testing.T, a *Agent) net.Conn {
	t.Helper()
	srcSide, agSide := net.Pipe()
	t.Cleanup(func() { srcSide.Close() })
	go a.Serve(context.Background(), agSide)
	srcSide.SetDeadline(time.Now().Add(30 * time.Second))
	if f, _, err := distrib.ReadFrame(srcSide, nil); err != nil || f.Type != distrib.MsgHello {
		t.Fatalf("hello: %v %v", f.Type, err)
	}
	return srcSide
}

// exchange writes frames to the agent and returns the ack the last one
// drew; the frames before it draw none.
func exchange(t *testing.T, conn net.Conn, frames ...distrib.Frame) distrib.Ack {
	t.Helper()
	for _, f := range frames {
		if _, err := distrib.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	r, _, err := distrib.ReadFrame(conn, nil)
	if err != nil || r.Type != distrib.MsgAck {
		t.Fatalf("ack: %v, %v", r.Type, err)
	}
	ack, err := distrib.ParseAck(r.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// fullPush is the frames of a full sync of every row of c, the prepare
// included.
func fullPush(c *distrib.CompiledEpoch) []distrib.Frame {
	rows := make([]int, c.Rows)
	for i := range rows {
		rows[i] = i
	}
	return fullSync(c, rows)
}

// fullSync is the frames of a full sync of the given rows of c: a push
// without a base whose one MsgDelta carries every entry of the rows.
func fullSync(c *distrib.CompiledEpoch, rows []int) []distrib.Frame {
	var entries []routing.DeltaEntry
	var sums []distrib.RowSum
	for local, r := range rows {
		for col, next := range c.LFTs[r] {
			entries = append(entries, routing.DeltaEntry{Row: int32(local), Col: int32(col), Next: next})
		}
		sums = append(sums, distrib.RowSum{Switch: c.Switches[r], CRC: c.CRCs[r]})
	}
	return []distrib.Frame{
		{Type: distrib.MsgBegin, Epoch: c.Seq, Payload: distrib.AppendBegin(nil, distrib.Begin{Rows: len(rows), Cols: c.Cols, Frames: 1})},
		{Type: distrib.MsgDelta, Epoch: c.Seq, Payload: routing.EncodeDelta(nil, len(rows), c.Cols, entries)},
		{Type: distrib.MsgPrepare, Epoch: c.Seq, Payload: distrib.AppendPrepare(nil, sums)},
	}
}

// hugePush is a full sync that declares the largest shape a Begin may,
// 2^24 x 2^24, sends three entries and prepares.
func hugePush() []distrib.Frame {
	huge := distrib.Begin{Rows: 1 << 24, Cols: 1 << 24, Frames: 1}
	three := []routing.DeltaEntry{{Row: 0, Col: 0, Next: 1}, {Row: 0, Col: 1, Next: 2}, {Row: 0, Col: 2, Next: 3}}
	return []distrib.Frame{
		{Type: distrib.MsgBegin, Epoch: 1, Payload: distrib.AppendBegin(nil, huge)},
		{Type: distrib.MsgDelta, Epoch: 1, Payload: routing.EncodeDelta(nil, huge.Rows, huge.Cols, three)},
		{Type: distrib.MsgPrepare, Epoch: 1, Payload: distrib.AppendPrepare(nil, []distrib.RowSum{{Switch: 0}})},
	}
}

// skipPush is fullPush(c) with the second entry left out of its MsgDelta,
// so the third entry's position skips one.
func skipPush(t testing.TB, c *distrib.CompiledEpoch) []distrib.Frame {
	t.Helper()
	frames := fullPush(c)
	_, _, entries, err := routing.DecodeDelta(frames[1].Payload)
	if err != nil {
		t.Fatal(err)
	}
	frames[1].Payload = routing.EncodeDelta(nil, c.Rows, c.Cols, append(entries[:1:1], entries[2:]...))
	return frames
}

// compiled returns a min-hop epoch of a small torus, compiled.
func compiled(t testing.TB, seq uint64) *distrib.CompiledEpoch {
	t.Helper()
	tp := topology.Torus3D(3, 3, 2, 1, 1)
	res, err := minhop.MinHop{}.Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return distrib.Compile(distrib.Epoch{Seq: seq, Net: tp.Net, Result: res})
}

// TestOversizedBeginNaks: a CRC-valid 29-byte MsgBegin that declares a
// full sync of 2^40 rows is refused with a NAK — the agent used to
// presize its staging to the declared count and die of an out-of-memory
// fatal error — and a valid full sync on the same connection then
// installs.
func TestOversizedBeginNaks(t *testing.T) {
	c := compiled(t, 2)
	a := New(Options{ID: "t"})
	conn := pipeAgent(t, a)
	begin := distrib.Frame{Type: distrib.MsgBegin, Epoch: 1,
		Payload: distrib.AppendBegin(nil, distrib.Begin{Rows: 1 << 40, Cols: 1, Frames: 1})}
	if n := len(distrib.AppendFrame(nil, begin)); n != 29 {
		t.Fatalf("the begin frame is %d bytes, want 29", n)
	}
	if ack := exchange(t, conn, begin); ack.Phase != distrib.AckNak {
		t.Fatalf("a begin of 2^40 rows was answered %+v, want a NAK", ack)
	}
	want := c.OwnedCRC(nil)
	if ack := exchange(t, conn, fullPush(c)...); ack.Phase != distrib.AckPrepared || ack.FleetCRC != want {
		t.Fatalf("prepare after the refused begin: %+v, want prepared with fleet CRC %#x", ack, want)
	}
	if ack := exchange(t, conn, distrib.Frame{Type: distrib.MsgCommit, Epoch: c.Seq}); ack.Phase != distrib.AckCommitted {
		t.Fatalf("commit: %+v", ack)
	}
	if ep, crc, ok := a.Snapshot(); !ok || ep != c.Seq || crc != want {
		t.Fatalf("snapshot (%d, %#x, %v), want (%d, %#x, true)", ep, crc, ok, c.Seq, want)
	}
}

// TestPrepareResumsUntouchedRows: a delta stages copy-on-write — the rows
// it does not touch stay the installed ones — and the prepare still
// re-sums every staged row. So an installed row that changed in memory
// after its own prepare is caught by the next delta's prepare even when
// the delta does not touch it: the push is refused and nothing installs.
func TestPrepareResumsUntouchedRows(t *testing.T) {
	c := compiled(t, 1)
	a := New(Options{ID: "t"})
	conn := pipeAgent(t, a)
	if ack := exchange(t, conn, fullPush(c)...); ack.Phase != distrib.AckPrepared {
		t.Fatalf("prepare: %+v", ack)
	}
	if ack := exchange(t, conn, distrib.Frame{Type: distrib.MsgCommit, Epoch: 1}); ack.Phase != distrib.AckCommitted {
		t.Fatalf("commit: %+v", ack)
	}

	// Epoch 2 differs from epoch 1 in one entry of row 0; row 1 is
	// corrupted in the agent's memory.
	next := c.Result.Table.Clone(nil)
	next.Set(c.Switches[0], c.Result.Table.Dests()[0], c.LFTs[0][0]+1)
	c2 := distrib.Compile(distrib.Epoch{Seq: 2, Net: c.Net, Result: &routing.Result{Table: next, VCs: 1}})
	a.mu.Lock()
	a.rows[1][0]++
	a.mu.Unlock()

	var sums []distrib.RowSum
	for i := range c2.LFTs {
		sums = append(sums, distrib.RowSum{Switch: c2.Switches[i], CRC: c2.CRCs[i]})
	}
	delta := []routing.DeltaEntry{{Row: 0, Col: 0, Next: c2.LFTs[0][0]}}
	ack := exchange(t, conn,
		distrib.Frame{Type: distrib.MsgBegin, Epoch: 2, Payload: distrib.AppendBegin(nil, distrib.Begin{Base: 1, HasBase: true, Rows: c2.Rows, Cols: c2.Cols, Frames: 1})},
		distrib.Frame{Type: distrib.MsgDelta, Epoch: 2, Payload: routing.EncodeDelta(nil, c2.Rows, c2.Cols, delta)},
		distrib.Frame{Type: distrib.MsgPrepare, Epoch: 2, Payload: distrib.AppendPrepare(nil, sums)})
	if ack.Phase != distrib.AckNak || ack.Reason != fmt.Sprintf("row %d checksum mismatch", c2.Switches[1]) {
		t.Fatalf("prepare over a corrupted untouched row was answered %+v, want a NAK naming switch %d", ack, c2.Switches[1])
	}
	if ep, _, _ := a.Snapshot(); ep != 1 || a.Stats().DeltaInstalls != 0 {
		t.Fatalf("the refused delta installed: epoch %d, %d delta installs", ep, a.Stats().DeltaInstalls)
	}
	if got := a.NextHop(c.Switches[0], 0); got != c.LFTs[0][0] {
		t.Fatalf("the refused delta wrote the installed row: NextHop = %d, want %d", got, c.LFTs[0][0])
	}
}

// TestAbandonedStagingsLeaveInstalledRows: once a delta has committed,
// the rows a delta stages are the ones it replaced, recycled, and the
// rows of a staging that never commits go back to the spare list. None
// of that reaches the installed table: after a delta superseded by a new
// begin, a NAK'd delta and a corrupt frame, the agent reports the
// installed epoch's checksums and forwards by its entries, and a delta
// that copies every row into recycled ones installs exactly its epoch.
// The spare list never holds more rows than the agent owns.
func TestAbandonedStagingsLeaveInstalledRows(t *testing.T) {
	c1 := compiled(t, 1)
	all := make([]int, c1.Rows)
	for i := range all {
		all[i] = i
	}
	// epochWith is base with every entry of the given rows moved by bump.
	epochWith := func(base *distrib.CompiledEpoch, seq uint64, rows []int, bump graph.ChannelID) *distrib.CompiledEpoch {
		next := base.Result.Table.Clone(nil)
		for _, r := range rows {
			for col, d := range next.Dests() {
				next.Set(base.Switches[r], d, base.LFTs[r][col]+bump)
			}
		}
		return distrib.Compile(distrib.Epoch{Seq: seq, Net: base.Net, Result: &routing.Result{Table: next, VCs: 1}})
	}
	begin := func(base, c *distrib.CompiledEpoch) distrib.Frame {
		return distrib.Frame{Type: distrib.MsgBegin, Epoch: c.Seq,
			Payload: distrib.AppendBegin(nil, distrib.Begin{Base: base.Seq, HasBase: true, Rows: c.Rows, Cols: c.Cols, Frames: 1})}
	}
	delta := func(base, c *distrib.CompiledEpoch) distrib.Frame {
		var entries []routing.DeltaEntry
		for r := range c.LFTs {
			for col, next := range c.LFTs[r] {
				if next != base.LFTs[r][col] {
					entries = append(entries, routing.DeltaEntry{Row: int32(r), Col: int32(col), Next: next})
				}
			}
		}
		return distrib.Frame{Type: distrib.MsgDelta, Epoch: c.Seq, Payload: routing.EncodeDelta(nil, c.Rows, c.Cols, entries)}
	}
	prepare := func(c, sumsOf *distrib.CompiledEpoch) distrib.Frame {
		var sums []distrib.RowSum
		for i := range sumsOf.LFTs {
			sums = append(sums, distrib.RowSum{Switch: sumsOf.Switches[i], CRC: sumsOf.CRCs[i]})
		}
		return distrib.Frame{Type: distrib.MsgPrepare, Epoch: c.Seq, Payload: distrib.AppendPrepare(nil, sums)}
	}
	a := New(Options{ID: "t"})
	conn := pipeAgent(t, a)
	commit := func(c *distrib.CompiledEpoch, frames ...distrib.Frame) {
		t.Helper()
		if ack := exchange(t, conn, frames...); ack.Phase != distrib.AckPrepared {
			t.Fatalf("epoch %d prepare: %+v", c.Seq, ack)
		}
		if ack := exchange(t, conn, distrib.Frame{Type: distrib.MsgCommit, Epoch: c.Seq}); ack.Phase != distrib.AckCommitted {
			t.Fatalf("epoch %d commit: %+v", c.Seq, ack)
		}
	}
	installed := func(c *distrib.CompiledEpoch, after string) {
		t.Helper()
		if ep, crc, ok := a.Snapshot(); !ok || ep != c.Seq || crc != c.OwnedCRC(nil) {
			t.Fatalf("after %s: snapshot (%d, %#x, %v), want (%d, %#x, true)", after, ep, crc, ok, c.Seq, c.OwnedCRC(nil))
		}
		for r, sw := range c.Switches {
			for col, want := range c.LFTs[r] {
				if got := a.NextHop(sw, col); got != want {
					t.Fatalf("after %s: NextHop(%d, %d) = %d, want %d", after, sw, col, got, want)
				}
			}
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		if len(a.spare) > len(a.rows) {
			t.Fatalf("after %s: %d spare rows for %d owned", after, len(a.spare), len(a.rows))
		}
	}

	commit(c1, fullPush(c1)...)
	installed(c1, "the full sync")
	c2 := epochWith(c1, 2, []int{0, 1, 2}, 1)
	commit(c2, begin(c1, c2), delta(c1, c2), prepare(c2, c2))
	installed(c2, "the first delta")
	if a.mu.Lock(); len(a.spare) != 3 {
		t.Fatalf("%d spare rows after a delta replaced 3, want 3", len(a.spare))
	}
	a.mu.Unlock()

	// A delta that copies every row is superseded by a new begin, whose
	// push prepares but never commits.
	c3, c4 := epochWith(c2, 3, all, 7), epochWith(c2, 4, []int{5}, 3)
	if ack := exchange(t, conn, begin(c2, c3), delta(c2, c3), begin(c2, c4), delta(c2, c4), prepare(c4, c4)); ack.Phase != distrib.AckPrepared {
		t.Fatalf("the superseding push: %+v", ack)
	}
	installed(c2, "a superseded delta")

	// A delta whose prepare does not match what it staged is NAK'd.
	c5 := epochWith(c2, 5, all, 9)
	if ack := exchange(t, conn, begin(c2, c5), delta(c2, c5), prepare(c5, c2)); ack.Phase != distrib.AckNak {
		t.Fatalf("a prepare over mismatched rows: %+v, want a NAK", ack)
	}
	installed(c2, "a NAK'd delta")

	// A corrupt frame drops the staged delta.
	c6 := epochWith(c2, 6, all, 11)
	corrupt := distrib.AppendFrame(nil, prepare(c6, c6))
	corrupt[len(corrupt)-1] ^= 1
	for _, f := range []distrib.Frame{begin(c2, c6), delta(c2, c6)} {
		if _, err := distrib.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(corrupt); err != nil {
		t.Fatal(err)
	}
	if ack := exchange(t, conn); ack.Phase != distrib.AckNak || ack.Reason != "corrupt frame" {
		t.Fatalf("a corrupt frame: %+v, want a NAK", ack)
	}
	installed(c2, "a corrupt frame")

	c7 := epochWith(c2, 7, all, 5)
	commit(c7, begin(c2, c7), delta(c2, c7), prepare(c7, c7))
	installed(c7, "a delta into recycled rows")
	if st := a.Stats(); st.DeltaInstalls != 2 || st.Naks != 2 || st.CorruptFrames != 1 {
		t.Fatalf("stats %+v, want 2 delta installs, 2 NAKs and 1 corrupt frame", st)
	}
}

// TestFullSyncFrameRules: a push without a base appends entries, each
// continuing where the last one stopped, and prepares only once it has
// every entry of the shape its Begin declared, over switches in strictly
// ascending order. A push that breaks a rule is NAKed and installs
// nothing; a valid full sync on the same connection then installs.
func TestFullSyncFrameRules(t *testing.T) {
	c := compiled(t, 1)
	a := New(Options{ID: "t"})
	conn := pipeAgent(t, a)

	if ack := exchange(t, conn, hugePush()...); ack.Phase != distrib.AckNak || ack.Reason != "incomplete push: 1/1 frames" {
		t.Fatalf("three entries of a 2^48-entry push prepared: %+v, want an incomplete-push NAK", ack)
	}
	if ack := exchange(t, conn, skipPush(t, c)[:2]...); ack.Phase != distrib.AckNak || ack.Reason != "full sync skips to entry (0,2) after 1 entries" {
		t.Fatalf("a full sync that skips an entry: %+v, want a NAK", ack)
	}

	// Every entry, but switches out of order in the prepare.
	swapped := fullPush(c)
	sums, err := distrib.ParsePrepare(nil, swapped[2].Payload)
	if err != nil {
		t.Fatal(err)
	}
	sums[0], sums[1] = sums[1], sums[0]
	swapped[2].Payload = distrib.AppendPrepare(nil, sums)
	if ack := exchange(t, conn, swapped...); ack.Phase != distrib.AckNak || ack.Reason != "prepare switches not in ascending order" {
		t.Fatalf("a prepare over unordered switches: %+v, want a NAK", ack)
	}
	if _, _, ok := a.Snapshot(); ok {
		t.Fatal("a refused full sync installed")
	}

	if ack := exchange(t, conn, fullPush(c)...); ack.Phase != distrib.AckPrepared || ack.FleetCRC != c.OwnedCRC(nil) {
		t.Fatalf("a valid full sync: %+v, want prepared with fleet CRC %#x", ack, c.OwnedCRC(nil))
	}
	if ack := exchange(t, conn, distrib.Frame{Type: distrib.MsgCommit, Epoch: c.Seq}); ack.Phase != distrib.AckCommitted {
		t.Fatalf("commit: %+v", ack)
	}
	if st := a.Stats(); st.FullSyncs != 1 || st.Naks != 3 {
		t.Fatalf("stats %+v, want one full sync and three NAKs", st)
	}
}

// TestRefusals sends the agent every refusal it can produce, each on an
// agent holding epoch 1, and checks the one refusal path: the NAK names
// the reason, Naks (and CorruptFrames for a corrupt frame) count it, the
// staging is dropped, forwarding resumes, and the installed epoch and its
// checksum are the ones before.
func TestRefusals(t *testing.T) {
	c := compiled(t, 1)
	rows, cols := c.Rows, c.Cols
	var sums []distrib.RowSum
	for i := range c.LFTs {
		sums = append(sums, distrib.RowSum{Switch: c.Switches[i], CRC: c.CRCs[i]})
	}
	begin := func(epoch uint64, b distrib.Begin) distrib.Frame {
		return distrib.Frame{Type: distrib.MsgBegin, Epoch: epoch, Payload: distrib.AppendBegin(nil, b)}
	}
	onBase := distrib.Begin{Base: 1, HasBase: true, Rows: rows, Cols: cols, Frames: 1}
	delta := func(rows, cols int) distrib.Frame {
		return distrib.Frame{Type: distrib.MsgDelta, Epoch: 2, Payload: routing.EncodeDelta(nil, rows, cols, nil)}
	}
	prepare := func(edit func(s []distrib.RowSum) []distrib.RowSum) distrib.Frame {
		return distrib.Frame{Type: distrib.MsgPrepare, Epoch: 2, Payload: distrib.AppendPrepare(nil, edit(slices.Clone(sums)))}
	}
	same := func(s []distrib.RowSum) []distrib.RowSum { return s }
	commit := func(epoch uint64) distrib.Frame { return distrib.Frame{Type: distrib.MsgCommit, Epoch: epoch} }
	fullOf2 := func() []distrib.Frame {
		frames := fullPush(c)
		for i := range frames {
			frames[i].Epoch = 2
		}
		return frames
	}
	// outside is a delta of the installed shape whose one entry sits one
	// past the table's last position, CRC-valid: the encoder refuses to
	// write one.
	outside := func() distrib.Frame {
		body := routing.EncodeDelta(nil, rows, cols, nil)[:4] // the magic
		for _, v := range []int{rows, cols, 1, rows * cols, 1} {
			body = binary.AppendUvarint(body, uint64(v))
		}
		return distrib.Frame{Type: distrib.MsgDelta, Epoch: 2, Payload: binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))}
	}
	swapped := func(s []distrib.RowSum) []distrib.RowSum { s[0], s[1] = s[1], s[0]; return s }

	cases := []struct {
		name     string
		prepared []distrib.Frame // a push that prepares first, if any
		frames   []distrib.Frame // the last one draws the NAK
		corrupt  bool            // then a corrupt frame draws it
		reason   string          // the NAK's reason, or its prefix up to "..."
	}{
		{name: "bad begin", frames: []distrib.Frame{{Type: distrib.MsgBegin, Epoch: 2, Payload: []byte{1}}}, reason: "bad begin: ..."},
		{name: "bad prepare", frames: []distrib.Frame{begin(2, onBase), delta(rows, cols), {Type: distrib.MsgPrepare, Epoch: 2, Payload: []byte{1, 2, 3}}}, reason: "bad prepare: ..."},
		{name: "stale base", frames: []distrib.Frame{begin(2, distrib.Begin{Base: 7, HasBase: true, Rows: rows, Cols: cols, Frames: 1})}, reason: "stale delta base 7 (installed 1/true)"},
		{name: "begin shape mismatch", frames: []distrib.Frame{begin(2, distrib.Begin{Base: 1, HasBase: true, Rows: rows + 1, Cols: cols, Frames: 1})}, reason: "delta shape mismatch"},
		{name: "delta shape mismatch", frames: []distrib.Frame{begin(2, onBase), delta(rows, cols+1)}, reason: "delta shape mismatch"},
		{name: "delta without begin", frames: []distrib.Frame{delta(rows, cols)}, reason: "delta without matching begin"},
		{name: "delta of another epoch", frames: []distrib.Frame{begin(3, onBase), delta(rows, cols)}, reason: "delta without matching begin"},
		{name: "prepare without begin", frames: []distrib.Frame{prepare(same)}, reason: "prepare without matching begin"},
		{name: "out-of-range entry", frames: []distrib.Frame{begin(2, onBase), outside()},
			reason: fmt.Sprintf("delta rejected: %v: entry position outside table", routing.ErrDeltaCorrupt)},
		{name: "full sync skip", frames: skipPush(t, c)[:2], reason: "full sync skips to entry (0,2) after 1 entries"},
		{name: "incomplete push", frames: []distrib.Frame{begin(2, distrib.Begin{Base: 1, HasBase: true, Rows: rows, Cols: cols, Frames: 2}), delta(rows, cols), prepare(same)}, reason: "incomplete push: 1/2 frames"},
		{name: "row count mismatch", frames: append(fullOf2()[:2], prepare(func(s []distrib.RowSum) []distrib.RowSum { return s[1:] })), reason: "prepare row count mismatch"},
		{name: "switch order", frames: append(fullOf2()[:2], prepare(swapped)), reason: "prepare switches not in ascending order"},
		{name: "switch mismatch", frames: []distrib.Frame{begin(2, onBase), delta(rows, cols), prepare(swapped)},
			reason: fmt.Sprintf("prepare switch %d, staged %d", sums[1].Switch, sums[0].Switch)},
		{name: "checksum mismatch", frames: []distrib.Frame{begin(2, onBase), delta(rows, cols), prepare(func(s []distrib.RowSum) []distrib.RowSum { s[1].CRC ^= 1; return s })},
			reason: fmt.Sprintf("row %d checksum mismatch", sums[1].Switch)},
		{name: "commit without prepare", frames: []distrib.Frame{begin(2, onBase), delta(rows, cols), commit(2)}, reason: "commit without prepared epoch"},
		{name: "drained, then a commit of another epoch", prepared: []distrib.Frame{begin(2, onBase), delta(rows, cols), prepare(same)},
			frames: []distrib.Frame{commit(3)}, reason: "commit without prepared epoch"},
		{name: "corrupt frame", frames: []distrib.Frame{begin(2, onBase), delta(rows, cols)}, corrupt: true, reason: "corrupt frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := New(Options{ID: "t"})
			conn := pipeAgent(t, a)
			if ack := exchange(t, conn, fullPush(c)...); ack.Phase != distrib.AckPrepared {
				t.Fatalf("prepare of epoch 1: %+v", ack)
			}
			if ack := exchange(t, conn, commit(1)); ack.Phase != distrib.AckCommitted {
				t.Fatalf("commit of epoch 1: %+v", ack)
			}
			ep0, crc0, _ := a.Snapshot()
			if tc.prepared != nil {
				tc.prepared[0].Flags = distrib.FlagDrain
				if ack := exchange(t, conn, tc.prepared...); ack.Phase != distrib.AckPrepared || a.Forwarding() {
					t.Fatalf("drained prepare: %+v, forwarding %v", ack, a.Forwarding())
				}
			}
			frames := tc.frames
			if tc.corrupt {
				for _, f := range frames {
					if _, err := distrib.WriteFrame(conn, f); err != nil {
						t.Fatal(err)
					}
				}
				bad := distrib.AppendFrame(nil, prepare(same))
				bad[len(bad)-1] ^= 1
				if _, err := conn.Write(bad); err != nil {
					t.Fatal(err)
				}
				frames = nil
			}
			ack := exchange(t, conn, frames...)
			prefix, open := strings.CutSuffix(tc.reason, "...")
			if ack.Phase != distrib.AckNak || (open && !strings.HasPrefix(ack.Reason, prefix)) || (!open && ack.Reason != tc.reason) {
				t.Fatalf("answered %+v, want a NAK: %s", ack, tc.reason)
			}
			corrupt := 0
			if tc.corrupt {
				corrupt = 1
			}
			if st := a.Stats(); st.Naks != 1 || st.CorruptFrames != corrupt || st.Commits != 1 {
				t.Errorf("stats %+v, want 1 NAK, %d corrupt frames and the one commit", st, corrupt)
			}
			a.mu.Lock()
			staged := a.stage != nil
			a.mu.Unlock()
			if staged {
				t.Error("the refused push is still staged")
			}
			if !a.Forwarding() {
				t.Error("the agent is still draining")
			}
			if ep, crc, ok := a.Snapshot(); !ok || ep != ep0 || crc != crc0 {
				t.Errorf("snapshot (%d, %#x, %v), want (%d, %#x, true)", ep, crc, ok, ep0, crc0)
			}
		})
	}
}
