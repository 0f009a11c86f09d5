package agent

import (
	"context"
	"net"
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
	if f, err := distrib.ReadFrame(srcSide, 0); err != nil || f.Type != distrib.MsgHello {
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
		r, err := distrib.ReadFrame(srcSide, 0)
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
	send(distrib.Frame{Type: distrib.MsgBegin, Flags: distrib.FlagFull, Epoch: 4,
		Payload: distrib.AppendBegin(nil, distrib.Begin{Rows: len(rows), Cols: c.Cols, Frames: len(rows)})})
	for _, r := range rows {
		send(distrib.Frame{Type: distrib.MsgLFT, Epoch: 4, Payload: distrib.AppendLFT(nil, c.Switches[r], c.LFTs[r])})
	}
	prepare := distrib.AppendPrepare(nil, sums)
	if got := sendAcked(distrib.Frame{Type: distrib.MsgPrepare, Epoch: 4, Payload: prepare}); got.Phase != distrib.AckPrepared || got.FleetCRC != want {
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
