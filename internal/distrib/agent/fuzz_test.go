package agent

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/routing"
)

// FuzzAgentFrames: an agent fed any sequence of frames over a pipe never
// dies, and what it allocates while serving them is bounded by the bytes
// it was sent, whatever the frames declare. The input is the byte stream
// the agent reads, cut into frames at their headers' lengths; each frame
// is re-sealed with a valid magic and checksum before it is sent (flag bit
// 0x80, which the protocol does not use, sends it with a broken checksum
// instead), so that mutations reach the protocol rather than stop at the
// framing. Explore with
//
//	go test -run '^$' -fuzz FuzzAgentFrames -fuzztime 60s ./internal/distrib/agent/
func FuzzAgentFrames(f *testing.F) {
	c := compiled(f, 1)
	seal := func(frames ...distrib.Frame) []byte {
		var b []byte
		for _, fr := range frames {
			b = distrib.AppendFrame(b, fr)
		}
		return b
	}
	// A full sync of 2^24 x 2^24 entries that sends three: the agent grows
	// by the entries it got, not by the shape, and NAKs the incomplete
	// push. Then one whose entry positions skip one.
	f.Add(seal(hugePush()...))
	f.Add(seal(skipPush(f, c)...))
	full := append(fullPush(c), distrib.Frame{Type: distrib.MsgCommit, Epoch: 1})
	f.Add(seal(full...))
	var sums []distrib.RowSum
	for i := range c.LFTs {
		sums = append(sums, distrib.RowSum{Switch: c.Switches[i], CRC: c.CRCs[i]})
	}
	delta := []routing.DeltaEntry{{Row: 0, Col: 1, Next: c.LFTs[0][1]}, {Row: 2, Col: 0, Next: c.LFTs[2][0] + 1}}
	f.Add(seal(append(full,
		distrib.Frame{Type: distrib.MsgBegin, Flags: distrib.FlagDrain, Epoch: 2,
			Payload: distrib.AppendBegin(nil, distrib.Begin{Base: 1, HasBase: true, Rows: c.Rows, Cols: c.Cols, Frames: 1})},
		distrib.Frame{Type: distrib.MsgDelta, Epoch: 2, Payload: routing.EncodeDelta(nil, c.Rows, c.Cols, delta)},
		distrib.Frame{Type: distrib.MsgPrepare, Epoch: 2, Payload: distrib.AppendPrepare(nil, sums)},
		distrib.Frame{Type: distrib.MsgCommit, Epoch: 2})...))

	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 1<<12 {
			// A delta may copy every row an earlier full sync installed, so
			// what a stream can make the agent copy grows with the square of
			// its length; the bound below is for streams of this size.
			return
		}
		var frames [][]byte
		for len(stream) >= 20 {
			n := min(int(binary.BigEndian.Uint32(stream[12:16])), len(stream)-20)
			fr := distrib.Frame{Type: distrib.MsgType(stream[2]), Flags: stream[3],
				Epoch: binary.BigEndian.Uint64(stream[4:12]), Payload: stream[16 : 16+n]}
			b := distrib.AppendFrame(nil, fr)
			if fr.Flags&0x80 != 0 {
				b[len(b)-1] ^= 1
			}
			frames = append(frames, b)
			stream = stream[16+n+4:]
		}

		// The fuzzing engine allocates in the same process now and then,
		// so a stream over the bound is served a second time before it
		// fails.
		sent, alloc := serveFrames(c, frames)
		if limit := 1<<20 + 256*uint64(sent); alloc > limit {
			if _, alloc = serveFrames(c, frames); alloc > limit {
				t.Fatalf("serving %d bytes of frames allocated %d bytes", sent, alloc)
			}
		}
	})
}

// serveFrames has a new agent, owning c's switches, serve frames over a
// pipe, and returns the bytes it was sent and what the process allocated
// meanwhile.
func serveFrames(c *distrib.CompiledEpoch, frames [][]byte) (sent int, alloc uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := New(Options{ID: "fuzz", Switches: c.Switches})
	srcSide, agSide := net.Pipe()
	srcSide.SetDeadline(time.Now().Add(10 * time.Second))
	served := make(chan struct{})
	go func() {
		a.Serve(context.Background(), agSide)
		close(served)
	}()
	read := make(chan struct{})
	go func() {
		for {
			if _, _, err := distrib.ReadFrame(srcSide, nil); err != nil {
				close(read)
				return
			}
		}
	}()
	for _, b := range frames {
		if _, err := srcSide.Write(b); err != nil {
			break
		}
		sent += len(b)
	}
	srcSide.Close()
	<-served
	<-read
	runtime.ReadMemStats(&after)
	return sent, after.TotalAlloc - before.TotalAlloc
}
