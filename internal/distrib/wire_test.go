package distrib

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/routing/minhop"
	"repro/internal/topology"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: MsgHello, Payload: []byte("payload")},
		{Type: MsgBegin, Flags: FlagDrain, Epoch: 1<<63 + 7, Payload: nil},
		{Type: MsgCommit, Epoch: 3, Payload: make([]byte, 1000)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if _, err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, _, err := ReadFrame(&buf, nil)
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
	if _, _, err := ReadFrame(&buf, nil); err != io.EOF {
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
		if _, _, err := ReadFrame(r, nil); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrFrameCorrupt", off, err)
		}
		f, _, err := ReadFrame(r, nil)
		if err != nil || f.Type != MsgCommit {
			t.Fatalf("flip at %d: stream not positioned at next frame: %v %v", off, f.Type, err)
		}
	}
}

// TestReadFrameReusesBuffer: frames read through one buffer share its
// memory, so a payload is valid until the next read, and a warm read
// allocates nothing. The entries DecodeDelta returned from frame n are a
// copy and survive frame n+1; a corrupt frame read into the same buffer
// is still ErrFrameCorrupt, and the stream goes on.
func TestReadFrameReusesBuffer(t *testing.T) {
	deltaA := []routing.DeltaEntry{{Row: 0, Col: 0, Next: 3}, {Row: 0, Col: 1, Next: graph.NoChannel}, {Row: 1, Col: 3, Next: 7}}
	deltaB := []routing.DeltaEntry{{Row: 0, Col: 2, Next: 9}, {Row: 1, Col: 0, Next: 2}}
	raw := AppendFrame(nil, Frame{Type: MsgDelta, Epoch: 1, Payload: routing.EncodeDelta(nil, 2, 4, deltaA)})
	raw = AppendFrame(raw, Frame{Type: MsgDelta, Epoch: 1, Payload: routing.EncodeDelta(nil, 2, 4, deltaB)})
	raw = AppendFrame(raw, Frame{Type: MsgDelta, Epoch: 2, Payload: routing.EncodeDelta(nil, 2, 4, deltaA)})
	raw[len(raw)-5] ^= 1 // the last payload byte of the third frame
	raw = AppendFrame(raw, Frame{Type: MsgCommit, Epoch: 2})
	r := bytes.NewReader(raw)

	f, buf, err := ReadFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := routing.DecodeDelta(f.Payload)
	if err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	f2, buf2, err := ReadFrame(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != &buf[0] || &f2.Payload[0] != &f.Payload[0] {
		t.Fatal("the second read did not reuse the buffer of the first")
	}
	if !slices.Equal(got, deltaA) {
		t.Fatalf("frame 1's entries read %v after frame 2 was read, want %v", got, deltaA)
	}
	if _, _, entries, err := routing.DecodeDelta(f2.Payload); err != nil || !slices.Equal(entries, deltaB) {
		t.Fatalf("frame 2: entries %v, %v", entries, err)
	}
	if _, buf, err = ReadFrame(r, buf2); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("frame 3: err = %v, want ErrFrameCorrupt", err)
	}
	if f, _, err := ReadFrame(r, buf); err != nil || f.Type != MsgCommit {
		t.Fatalf("frame 4 after the corrupt one: %v, %v", f.Type, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		_, buf, _ = ReadFrame(r, buf)
	}); n != 0 {
		t.Fatalf("a warm read: %v allocs, want 0", n)
	}
}

func TestFrameFramingErrors(t *testing.T) {
	raw := AppendFrame(nil, Frame{Type: MsgAck, Payload: []byte{1}})
	bad := append([]byte(nil), raw...)
	bad[0] = 0xFF // magic
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrFraming) {
		t.Fatalf("bad magic: err = %v, want ErrFraming", err)
	}
	// A header declaring one byte over the limit is refused before the
	// buffer grows for its payload.
	big := append([]byte(nil), raw[:headerSize]...)
	binary.BigEndian.PutUint32(big[12:16], DefaultMaxFrame+1)
	_, buf, err := ReadFrame(bytes.NewReader(big), nil)
	if !errors.Is(err, ErrFraming) {
		t.Fatalf("oversize: err = %v, want ErrFraming", err)
	}
	if cap(buf) > 64 {
		t.Fatalf("an oversize header grew the buffer to %d bytes", cap(buf))
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
	// A switch ID past int32 would wrap to another switch (2^32+3 to 3).
	for _, id := range []uint64{1 << 31, 1<<32 + 3} {
		p := AppendHello(nil, Hello{ID: "a", Switches: []graph.NodeID{1}})
		p = binary.AppendUvarint(p[:len(p)-1], id)
		if h, err := ParseHello(p); err == nil {
			t.Fatalf("hello naming switch %d parsed as %v", id, h.Switches)
		}
	}
}

func TestBeginPrepareAckRoundTrip(t *testing.T) {
	b := Begin{Base: 41, HasBase: true, Rows: 7, Cols: 9, Frames: 3}
	gb, err := ParseBegin(AppendBegin(nil, b))
	if err != nil || gb != b {
		t.Fatalf("begin: got %+v err %v, want %+v", gb, err, b)
	}
	gb, err = ParseBegin(AppendBegin(nil, Begin{Rows: 1}))
	if err != nil || gb.HasBase {
		t.Fatalf("baseless begin: %+v %v", gb, err)
	}

	sums := []RowSum{{Switch: 1, CRC: 0xdeadbeef}, {Switch: 2, CRC: 0}}
	gs, err := ParsePrepare(nil, AppendPrepare(nil, sums))
	if err != nil || len(gs) != 2 || gs[0] != sums[0] || gs[1] != sums[1] {
		t.Fatalf("prepare: %v %v", gs, err)
	}
	// The largest switch ID an int32 holds parses; one past it would wrap
	// to a negative switch.
	for id, ok := range map[uint64]bool{math.MaxInt32: true, 1 << 31: false, 1<<32 + 1: false} {
		p := binary.AppendUvarint(binary.AppendUvarint(nil, 1), id)
		p = binary.LittleEndian.AppendUint32(p, 7)
		gs, err := ParsePrepare(nil, p)
		if ok && (err != nil || gs[0].Switch != math.MaxInt32) {
			t.Fatalf("prepare naming switch %d: %v %v", id, gs, err)
		}
		if !ok && err == nil {
			t.Fatalf("prepare naming switch %d parsed as %v", id, gs)
		}
	}

	a := Ack{Phase: AckNak, FleetCRC: 77, Reason: "row 3 checksum mismatch"}
	ga, err := ParseAck(AppendAck(nil, a))
	if err != nil || ga != a {
		t.Fatalf("ack: got %+v err %v, want %+v", ga, err, a)
	}
}

// TestRowSizeMatchesFullPush: the byte count a compiled epoch keeps per
// row (rowSum) is what the row's entries take in the MsgDelta payload of
// a full push, whatever the uvarint widths: cleared entries (NoChannel
// encodes as 0), IDs on both sides of every 7-bit boundary, and column
// counts of one to three bytes. The payload is the row's entries between
// a header and a CRC.
func TestRowSizeMatchesFullPush(t *testing.T) {
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
		c := &CompiledEpoch{Cols: len(row), LFTs: [][]graph.ChannelID{row}}
		entries := c.deltaEntries(nil, nil, []int{0})
		payload := routing.EncodeDelta(nil, 1, len(row), entries)
		frame := 4 + 1 + 2*len(binary.AppendUvarint(nil, uint64(len(row)))) + 4 // magic, rows, cols, count, CRC
		crc, got := getCRCWords().rowSum(row)
		if want := len(payload) - frame; got != want {
			t.Fatalf("trial %d: %d columns: size %d, the full push's entries take %d bytes", trial, len(row), got, want)
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

// TestChecksumsAWordBlockAtATime: RowCRC, FleetCRC and a compiled epoch's
// own sums hand crc32.Update a block of words at a time; each must equal
// the definition, one update per little-endian word, on rows of every
// length around the block size, cleared entries (NoChannel, word 0)
// included.
func TestChecksumsAWordBlockAtATime(t *testing.T) {
	perWord := func(words []uint32) uint32 {
		var sum uint32
		var b [4]byte
		for _, w := range words {
			binary.LittleEndian.PutUint32(b[:], w)
			sum = crc32.Update(sum, crc32.IEEETable, b[:])
		}
		return sum
	}
	block := len(crcWords{}.buf) / 4
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, block - 1, block, block + 1, 2 * block, 3*block + 5, 1000} {
		for trial := 0; trial < 20; trial++ {
			row := make([]graph.ChannelID, n)
			words := make([]uint32, n)
			for i := range row {
				if rng.Intn(3) == 0 {
					row[i] = graph.NoChannel
				} else {
					row[i] = graph.ChannelID(rng.Int31n(1 << uint(1+rng.Intn(30))))
				}
				words[i] = uint32(row[i] + 1)
			}
			if got, want := RowCRC(row), perWord(words); got != want {
				t.Fatalf("%d entries: RowCRC %#x, per-word %#x", n, got, want)
			}
			sums := make([]uint32, n)
			for i := range sums {
				sums[i] = rng.Uint32()
			}
			if got, want := FleetCRC(sums), perWord(sums); got != want {
				t.Fatalf("%d row CRCs: FleetCRC %#x, per-word %#x", n, got, want)
			}
		}
	}
	tp := topology.Torus3D(3, 3, 2, 1, 1)
	res, err := minhop.MinHop{}.Route(tp.Net, tp.Net.Terminals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(Epoch{Net: tp.Net, Result: res})
	rows := []int{0, 3, 5, len(c.LFTs) - 1}
	var sums []uint32
	for i, row := range c.LFTs {
		words := make([]uint32, len(row))
		for k, ch := range row {
			words[k] = uint32(ch + 1)
		}
		if c.CRCs[i] != perWord(words) {
			t.Fatalf("compiled row %d: CRC %#x, per-word %#x", i, c.CRCs[i], perWord(words))
		}
	}
	for _, r := range rows {
		sums = append(sums, c.CRCs[r])
	}
	if got, want := c.fleetCRCFor(rows), perWord(sums); got != want {
		t.Fatalf("fleet CRC of rows %v: %#x, per-word %#x", rows, got, want)
	}
}
