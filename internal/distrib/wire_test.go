package distrib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: MsgHello, Payload: []byte("payload")},
		{Type: MsgBegin, Flags: FlagFull | FlagDrain, Epoch: 1<<63 + 7, Payload: nil},
		{Type: MsgCommit, Epoch: 3, Payload: make([]byte, 1000)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if _, err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.Epoch != want.Epoch {
			t.Fatalf("frame %d: header %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) && len(want.Payload) != 0 {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("trailing read = %v, want EOF", err)
	}
}

// TestFrameCorruptionRecoverable: a payload bit-flip must surface as
// ErrFrameCorrupt with the stream positioned at the next frame.
func TestFrameCorruptionRecoverable(t *testing.T) {
	raw := AppendFrame(nil, Frame{Type: MsgDelta, Epoch: 9, Payload: []byte{1, 2, 3, 4}})
	raw = AppendFrame(raw, Frame{Type: MsgCommit, Epoch: 9})
	for _, off := range []int{2, 3, 4, headerSize, headerSize + 3} { // type, flags, epoch, payload bytes
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		r := bytes.NewReader(mut)
		if _, err := ReadFrame(r, 0); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrFrameCorrupt", off, err)
		}
		f, err := ReadFrame(r, 0)
		if err != nil || f.Type != MsgCommit {
			t.Fatalf("flip at %d: stream not positioned at next frame: %v %v", off, f.Type, err)
		}
	}
}

func TestFrameFramingErrors(t *testing.T) {
	raw := AppendFrame(nil, Frame{Type: MsgAck, Payload: []byte{1}})
	bad := append([]byte(nil), raw...)
	bad[0] = 0xFF // magic
	if _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrFraming) {
		t.Fatalf("bad magic: err = %v, want ErrFraming", err)
	}
	big := append([]byte(nil), raw...)
	big[12] = 0xFF // length high byte: declares ~4 GiB
	if _, err := ReadFrame(bytes.NewReader(big), 1<<20); !errors.Is(err, ErrFraming) {
		t.Fatalf("oversize: err = %v, want ErrFraming", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	cases := []Hello{
		{ID: "agent-1"},
		{ID: "", Switches: []graph.NodeID{3, 1, 2}},
		{ID: "x", Acked: 0, HasAcked: true},
		{ID: "y", Acked: 1 << 40, HasAcked: true, Switches: []graph.NodeID{0}},
	}
	for i, want := range cases {
		got, err := ParseHello(AppendHello(nil, want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.ID != want.ID || got.Acked != want.Acked || got.HasAcked != want.HasAcked {
			t.Fatalf("case %d: got %+v, want %+v", i, got, want)
		}
		if len(got.Switches) != len(want.Switches) {
			t.Fatalf("case %d: switches %v, want %v", i, got.Switches, want.Switches)
		}
		for j := range want.Switches {
			if got.Switches[j] != want.Switches[j] {
				t.Fatalf("case %d: switches %v, want %v", i, got.Switches, want.Switches)
			}
		}
	}
	if _, err := ParseHello([]byte{200, 200, 200}); err == nil {
		t.Fatal("truncated hello parsed")
	}
}

func TestBeginLFTPrepareAckRoundTrip(t *testing.T) {
	b := Begin{Base: 41, HasBase: true, Rows: 7, Cols: 9, Frames: 3}
	gb, err := ParseBegin(AppendBegin(nil, b))
	if err != nil || gb != b {
		t.Fatalf("begin: got %+v err %v, want %+v", gb, err, b)
	}
	gb, err = ParseBegin(AppendBegin(nil, Begin{Rows: 1}))
	if err != nil || gb.HasBase {
		t.Fatalf("baseless begin: %+v %v", gb, err)
	}

	row := []graph.ChannelID{5, graph.NoChannel, 0, 1 << 20}
	sw, grow, err := ParseLFT(AppendLFT(nil, 12, row))
	if err != nil || sw != 12 || len(grow) != len(row) {
		t.Fatalf("lft: sw %d rows %v err %v", sw, grow, err)
	}
	for i := range row {
		if grow[i] != row[i] {
			t.Fatalf("lft col %d: %d, want %d", i, grow[i], row[i])
		}
	}

	sums := []RowSum{{Switch: 1, CRC: 0xdeadbeef}, {Switch: 2, CRC: 0}}
	gs, err := ParsePrepare(AppendPrepare(nil, sums))
	if err != nil || len(gs) != 2 || gs[0] != sums[0] || gs[1] != sums[1] {
		t.Fatalf("prepare: %v %v", gs, err)
	}

	a := Ack{Phase: AckNak, FleetCRC: 77, Reason: "row 3 checksum mismatch"}
	ga, err := ParseAck(AppendAck(nil, a))
	if err != nil || ga != a {
		t.Fatalf("ack: got %+v err %v, want %+v", ga, err, a)
	}
}

// TestLFTSizeMatchesEncoding: the byte count a compiled epoch keeps per
// row (rowSum) is the length of the payload AppendLFT writes
// for it, whatever the uvarint widths: cleared entries (NoChannel
// encodes as 0), IDs on both sides of every 7-bit boundary, switch IDs
// and column counts of one to three bytes.
func TestLFTSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []graph.ChannelID{graph.NoChannel, 0, 126, 127, 1<<14 - 2, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<31 - 2}
	for trial := 0; trial < 500; trial++ {
		row := make([]graph.ChannelID, rng.Intn(300))
		for i := range row {
			switch rng.Intn(4) {
			case 0:
				row[i] = edges[rng.Intn(len(edges))]
			case 1:
				row[i] = graph.ChannelID(rng.Intn(1 << 7))
			case 2:
				row[i] = graph.ChannelID(1<<14 + rng.Intn(1<<20))
			default:
				row[i] = graph.ChannelID(rng.Int31()) - 1
			}
		}
		sw := graph.NodeID(rng.Intn(1 << uint(1+rng.Intn(22))))
		crc, got := rowSum(sw, row)
		if want := len(AppendLFT(nil, sw, row)); got != want {
			t.Fatalf("trial %d: switch %d, %d columns: size %d, AppendLFT wrote %d bytes", trial, sw, len(row), got, want)
		}
		var le []byte
		for _, ch := range row {
			le = binary.LittleEndian.AppendUint32(le, uint32(ch+1))
		}
		if crc != crc32.ChecksumIEEE(le) {
			t.Fatalf("trial %d: row CRC %#x, want %#x", trial, crc, crc32.ChecksumIEEE(le))
		}
	}
}
