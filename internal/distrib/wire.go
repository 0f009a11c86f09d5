// Package distrib is the forwarding-plane distribution subsystem: it
// reads each routing epoch the fabric manager publishes as per-switch
// linear forwarding tables (LFTs: the rows of the published table, which
// is never written again, plus a checksum per row), delta-encodes them
// against the previously acknowledged fleet epoch, and pushes them over
// TCP (or any net.Conn) to a fleet of switch agents with bounded parallel
// fanout, per-agent timeout/retry/backoff and straggler quarantine.
//
// Installs follow the UPR-style two-phase order (Crespo et al.): agents
// stage and acknowledge a PREPARE, and only after the fleet-wide ack
// barrier does the source COMMIT, at which point each agent swaps its
// tables atomically. Before committing, the source certifies the
// *transition* — the union of the outgoing and incoming epoch, covering
// every per-switch mixture the fleet can pass through — with the
// independent oracle (oracle.CertifyTransition); a refuted union falls
// back to a drained install in which agents pause forwarding across the
// swap. See DESIGN.md §12.
package distrib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/graph"
)

// MsgType enumerates the wire messages of the distribution protocol.
type MsgType uint8

const (
	// MsgHello is the agent's first frame on a connection: its identity,
	// the switches it owns and the epoch it last committed.
	MsgHello MsgType = 1 + iota
	// MsgBegin opens one epoch push (source -> agent).
	MsgBegin
	_ // 3 is retired; the other types keep their numbers on the wire
	// MsgDelta carries a batch of LFT entries, the routing.EncodeDelta
	// payload over the agent's local row space: the only frame that
	// carries table entries. A full sync is the delta from an empty table.
	MsgDelta
	// MsgPrepare closes an epoch push with the authoritative per-row
	// checksums; the agent validates its staged tables and acks.
	MsgPrepare
	// MsgCommit orders the atomic swap of the staged tables.
	MsgCommit
	// MsgAck is the agent's response to MsgPrepare and MsgCommit (or a
	// NAK rejecting the push).
	MsgAck
)

// FlagDrain marks a MsgBegin push as a drained transition: the agent
// pauses forwarding from its prepare-ack until commit. (Bit 0 is
// retired: Begin.HasBase says whether a push is a full sync.)
const FlagDrain uint8 = 1 << 1

// Ack phases.
const (
	AckPrepared uint8 = 1 + iota
	AckCommitted
	AckNak
)

// frameMagic starts every frame header.
const frameMagic = 0x4E46 // "NF"

// headerSize is the fixed frame header length:
// magic u16 | type u8 | flags u8 | epoch u64 | payload length u32.
const headerSize = 16

// DefaultMaxFrame bounds accepted frame payloads (64 MiB: a MsgDelta of
// the source's at most 2^20 entries takes at most 12 MiB; a header
// declaring more is treated as lost framing, not as an allocation
// request).
const DefaultMaxFrame = 1 << 26

// ErrFrameCorrupt reports a frame whose checksum failed while the
// stream framing stayed intact: the frame must be rejected, but the
// reader may keep consuming subsequent frames.
var ErrFrameCorrupt = errors.New("distrib: corrupt frame")

// ErrFraming reports an unrecoverable stream error (bad magic or an
// implausible length): the connection must be dropped.
var ErrFraming = errors.New("distrib: framing lost")

// Frame is one protocol message.
type Frame struct {
	Type    MsgType
	Flags   uint8
	Epoch   uint64
	Payload []byte
}

// AppendFrame appends the encoded frame (header, payload, CRC-32
// trailer) to buf and returns the extended slice.
func AppendFrame(buf []byte, f Frame) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, frameMagic)
	buf = append(buf, byte(f.Type), f.Flags)
	buf = binary.BigEndian.AppendUint64(buf, f.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	buf = append(buf, f.Payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// WriteFrame writes one frame in a single Write call and returns the
// number of bytes written.
func WriteFrame(w io.Writer, f Frame) (int, error) {
	return w.Write(AppendFrame(nil, f))
}

// ReadFrame reads and validates one frame into buf, which it grows as
// needed and returns for the next call: a reader keeps one buffer per
// connection, so a warm read allocates nothing. The frame's payload is
// a view of that buffer, valid until the next read into it; the Parse
// functions copy what they keep. A payload longer than DefaultMaxFrame is
// refused at the header. A checksum failure returns ErrFrameCorrupt with
// the stream positioned at the next frame; a framing failure returns
// ErrFraming.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The header is read into buf too: a local array handed to the
	// reader would escape, one allocation per frame.
	buf = slices.Grow(buf[:0], headerSize)[:headerSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	if binary.BigEndian.Uint16(buf[:2]) != frameMagic {
		return Frame{}, buf, fmt.Errorf("%w: bad magic %#x", ErrFraming, buf[:2])
	}
	n := binary.BigEndian.Uint32(buf[12:16])
	if n > DefaultMaxFrame {
		return Frame{}, buf, fmt.Errorf("%w: payload of %d bytes exceeds limit %d", ErrFraming, n, DefaultMaxFrame)
	}
	end := headerSize + int(n)
	buf = slices.Grow(buf, int(n)+4)[:end+4]
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return Frame{}, buf, err
	}
	f := Frame{
		Type:    MsgType(buf[2]),
		Flags:   buf[3],
		Epoch:   binary.BigEndian.Uint64(buf[4:12]),
		Payload: buf[headerSize:end:end],
	}
	if crc32.ChecksumIEEE(buf[:end]) != binary.BigEndian.Uint32(buf[end:]) {
		return f, buf, fmt.Errorf("%w: checksum mismatch on %v frame", ErrFrameCorrupt, f.Type)
	}
	return f, buf, nil
}

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgBegin:
		return "begin"
	case MsgDelta:
		return "delta"
	case MsgPrepare:
		return "prepare"
	case MsgCommit:
		return "commit"
	case MsgAck:
		return "ack"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// cursor is a uvarint-oriented payload reader.
type cursor struct {
	p   []byte
	err error
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.err = errors.New("truncated uvarint")
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *cursor) bytes(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if uint64(len(c.p)) < n {
		c.err = errors.New("truncated bytes")
		return nil
	}
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

func (c *cursor) u32() uint32 {
	b := c.bytes(4)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// node reads a switch ID as the Append functions write one,
// uint64(graph.NodeID), so a negative ID (which no switch has) arrives
// sign-extended. A value no int32 extends to, anything above
// math.MaxInt32 among them, would wrap to another switch: it is refused.
func (c *cursor) node() graph.NodeID {
	v := int64(c.uvarint())
	if v != int64(int32(v)) && c.err == nil {
		c.err = fmt.Errorf("switch ID %d out of range", uint64(v))
	}
	return graph.NodeID(v)
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.p) != 0 {
		return errors.New("trailing payload bytes")
	}
	return nil
}

// Hello is the decoded MsgHello payload.
type Hello struct {
	ID string
	// Switches lists the switch rows the agent owns; nil subscribes to
	// every switch.
	Switches []graph.NodeID
	// Acked is the last epoch the agent committed (valid iff HasAcked),
	// letting a reconnecting agent resume with deltas.
	Acked    uint64
	HasAcked bool
}

// AppendHello encodes a Hello payload.
func AppendHello(buf []byte, h Hello) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(h.ID)))
	buf = append(buf, h.ID...)
	if h.HasAcked {
		buf = binary.AppendUvarint(buf, h.Acked+1)
	} else {
		buf = binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(h.Switches)))
	for _, s := range h.Switches {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	return buf
}

// ParseHello decodes a MsgHello payload.
func ParseHello(p []byte) (Hello, error) {
	var h Hello
	c := &cursor{p: p}
	h.ID = string(c.bytes(c.uvarint()))
	if a := c.uvarint(); a > 0 {
		h.Acked, h.HasAcked = a-1, true
	}
	n := c.uvarint()
	if c.err == nil && n > uint64(len(c.p)) {
		return h, errors.New("distrib: hello declares more switches than payload holds")
	}
	for i := uint64(0); i < n && c.err == nil; i++ {
		h.Switches = append(h.Switches, c.node())
	}
	return h, c.done()
}

// Begin is the decoded MsgBegin payload: the shape of the push that
// follows. Rows/Cols describe the agent's local row space (its owned
// switches in ascending ID order); Frames is the number of MsgDelta
// frames before MsgPrepare. A push with a base is a delta on the epoch
// Base; one without is a full sync, the delta from an empty table that
// carries every entry of the rows.
type Begin struct {
	Base    uint64
	HasBase bool
	Rows    int
	Cols    int
	Frames  int
}

// AppendBegin encodes a Begin payload.
func AppendBegin(buf []byte, b Begin) []byte {
	if b.HasBase {
		buf = binary.AppendUvarint(buf, b.Base+1)
	} else {
		buf = binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(b.Rows))
	buf = binary.AppendUvarint(buf, uint64(b.Cols))
	return binary.AppendUvarint(buf, uint64(b.Frames))
}

// maxShape bounds the Rows, Cols and Frames a MsgBegin may declare: the
// shape bound routing.DecodeDelta puts on a delta. A Begin costs a few
// bytes whatever it declares, so what it declares is checked before any
// of it becomes an int.
const maxShape = 1 << 24

// ParseBegin decodes a MsgBegin payload. It refuses a Rows, Cols or
// Frames above 2^24.
func ParseBegin(p []byte) (Begin, error) {
	var b Begin
	c := &cursor{p: p}
	if v := c.uvarint(); v > 0 {
		b.Base, b.HasBase = v-1, true
	}
	var shape [3]uint64
	for i := range shape {
		if shape[i] = c.uvarint(); shape[i] > maxShape {
			return b, fmt.Errorf("distrib: begin declares %d, more than %d", shape[i], maxShape)
		}
	}
	b.Rows, b.Cols, b.Frames = int(shape[0]), int(shape[1]), int(shape[2])
	return b, c.done()
}

// RowSum is one (switch, row checksum) pair of a MsgPrepare payload.
type RowSum struct {
	Switch graph.NodeID
	CRC    uint32
}

// AppendPrepare encodes a MsgPrepare payload: the authoritative row
// checksums of the pushed epoch, in ascending switch order.
func AppendPrepare(buf []byte, sums []RowSum) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(sums)))
	for _, s := range sums {
		buf = binary.AppendUvarint(buf, uint64(s.Switch))
		buf = binary.LittleEndian.AppendUint32(buf, s.CRC)
	}
	return buf
}

// ParsePrepare decodes a MsgPrepare payload, appending its checksums to
// sums: a reader that passes the last call's result, cut to length 0,
// parses into the same array.
func ParsePrepare(sums []RowSum, p []byte) ([]RowSum, error) {
	c := &cursor{p: p}
	n := c.uvarint()
	if c.err == nil && n > uint64(len(c.p)) {
		return sums, errors.New("distrib: prepare declares more rows than payload holds")
	}
	sums = slices.Grow(sums, int(n))
	for i := uint64(0); i < n && c.err == nil; i++ {
		sums = append(sums, RowSum{Switch: c.node(), CRC: c.u32()})
	}
	return sums, c.done()
}

// Ack is the decoded MsgAck payload.
type Ack struct {
	Phase uint8
	// FleetCRC is the agent's aggregate checksum over its owned rows
	// (prepare/commit acks), cross-checked by the source.
	FleetCRC uint32
	// Reason explains a NAK.
	Reason string
}

// AppendAck encodes an Ack payload.
func AppendAck(buf []byte, a Ack) []byte {
	buf = append(buf, a.Phase)
	buf = binary.LittleEndian.AppendUint32(buf, a.FleetCRC)
	buf = binary.AppendUvarint(buf, uint64(len(a.Reason)))
	return append(buf, a.Reason...)
}

// ParseAck decodes a MsgAck payload.
func ParseAck(p []byte) (Ack, error) {
	var a Ack
	c := &cursor{p: p}
	b := c.bytes(1)
	if c.err == nil {
		a.Phase = b[0]
	}
	a.FleetCRC = c.u32()
	a.Reason = string(c.bytes(c.uvarint()))
	return a, c.done()
}
