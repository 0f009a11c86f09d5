package routing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/graph"
)

// Clone returns a deep copy of the table rebound to net, which must share
// g's node and channel ID space (fault injection and delta mutation both
// preserve IDs). Pass nil to keep the current network. The fabric manager
// clones the published table, repairs columns in place, and publishes the
// copy — readers of the original are never disturbed.
func (t *Table) Clone(net *graph.Network) *Table {
	if net == nil {
		net = t.net
	}
	return &Table{
		net:       net,
		dests:     t.dests, // immutable after NewTable
		destIndex: t.destIndex,
		swIndex:   t.swIndex,
		next:      append([]graph.ChannelID(nil), t.next...),
	}
}

// ClearDest resets every entry of dest's column to NoChannel, detaching
// the destination from the routing before a repair re-routes it (or after
// it became unreachable).
func (t *Table) ClearDest(dest graph.NodeID) {
	d := t.destIndex[dest]
	if d < 0 {
		return
	}
	stride := len(t.dests)
	for i := int(d); i < len(t.next); i += stride {
		t.next[i] = graph.NoChannel
	}
}

// DestUsesChannel reports whether any entry of dest's column forwards
// over channel c.
func (t *Table) DestUsesChannel(dest graph.NodeID, c graph.ChannelID) bool {
	d := t.destIndex[dest]
	if d < 0 {
		return false
	}
	stride := len(t.dests)
	for i := int(d); i < len(t.next); i += stride {
		if t.next[i] == c {
			return true
		}
	}
	return false
}

// ForEach calls fn for every non-empty (switch, destination, next hop)
// entry of the table.
func (t *Table) ForEach(fn func(sw, dest graph.NodeID, c graph.ChannelID)) {
	sws := make([]graph.NodeID, 0, len(t.swIndex))
	for n, r := range t.swIndex {
		if r >= 0 {
			sws = append(sws, graph.NodeID(n))
		}
	}
	stride := len(t.dests)
	for _, sw := range sws {
		row := int(t.swIndex[sw]) * stride
		for di, d := range t.dests {
			if c := t.next[row+di]; c != graph.NoChannel {
				fn(sw, d, c)
			}
		}
	}
}

// TableDelta summarizes how two forwarding tables over the same
// destination set differ — the re-cabling cost of a reconfiguration in an
// operational fail-in-place network.
type TableDelta struct {
	// Changed counts entries present in both tables with different next
	// hops; Added entries only the new table has; Removed entries only the
	// old table has; Same entries identical in both.
	Changed, Added, Removed, Same int
}

// Total returns the number of entries populated in at least one table.
func (d TableDelta) Total() int { return d.Changed + d.Added + d.Removed + d.Same }

// UnchangedFraction returns Same / Total (1.0 for two empty tables): the
// forwarding-state stability across the transition.
func (d TableDelta) UnchangedFraction() float64 {
	t := d.Total()
	if t == 0 {
		return 1
	}
	return float64(d.Same) / float64(t)
}

// Digest returns a deterministic FNV-1a fingerprint of the table's shape,
// destination set and every next-hop entry. Two tables with equal digests
// forward identically (up to hash collision); the sharded-vs-monolithic
// differential tests and the replicated epoch log compare configurations
// by this value instead of shipping full tables.
func (t *Table) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	rows, cols := t.Shape()
	mix(uint64(rows))
	mix(uint64(cols))
	for _, d := range t.dests {
		mix(uint64(uint32(d)))
	}
	for _, c := range t.next {
		mix(uint64(uint32(c)))
	}
	return h
}

// Shape returns the table dimensions: rows (switches) and cols
// (destinations). next is indexed row-major: next[row*cols+col].
func (t *Table) Shape() (rows, cols int) {
	if len(t.dests) == 0 {
		return 0, 0
	}
	return len(t.next) / len(t.dests), len(t.dests)
}

// RowIndex returns the table row of switch sw (-1 if sw owns no row,
// which includes every ID outside the network: distrib asks it about
// switch IDs read off the wire). Rows are assigned to switches in
// ascending node-ID order, so row r belongs to the r-th switch of
// Network.Switches().
func (t *Table) RowIndex(sw graph.NodeID) int32 {
	if sw < 0 || int(sw) >= len(t.swIndex) {
		return -1
	}
	return t.swIndex[sw]
}

// Row returns switch sw's row — one next-hop channel per destination
// column, NoChannel for unpopulated entries — as a view of the table's
// own storage (do not modify; its capacity is its length, so an append
// copies instead of running into the next row). The view is as stable as
// the table: a published table is never written — the fabric manager
// clones before it repairs. It panics if sw owns no row.
func (t *Table) Row(sw graph.NodeID) []graph.ChannelID {
	r := t.swIndex[sw]
	if r < 0 {
		panic(fmt.Sprintf("routing: Row of non-switch node %d", sw))
	}
	stride := len(t.dests)
	lo := int(r) * stride
	return t.next[lo : lo+stride : lo+stride]
}

// Diff compares two tables entry by entry. Both must be built over the
// same destination set and switch ID space (the fabric manager's tables
// always are; it panics otherwise).
func Diff(old, new_ *Table) TableDelta {
	if len(old.next) != len(new_.next) || len(old.dests) != len(new_.dests) {
		panic("routing: Diff over differently shaped tables")
	}
	var delta TableDelta
	for i := range old.next {
		a, b := old.next[i], new_.next[i]
		switch {
		case a == b && a == graph.NoChannel:
			// unpopulated in both; not an entry
		case a == b:
			delta.Same++
		case a == graph.NoChannel:
			delta.Added++
		case b == graph.NoChannel:
			delta.Removed++
		default:
			delta.Changed++
		}
	}
	return delta
}

// DeltaEntry is one entry-level difference between two tables: the entry
// at row Row (switch row, see RowIndex) and column Col (destination
// index) becomes Next. Next == graph.NoChannel encodes a cleared entry.
type DeltaEntry struct {
	Row, Col int32
	Next     graph.ChannelID
}

// EntryDiff returns the entry-level delta transforming old into new_:
// every (row, col) whose next hop differs, in ascending (row, col)
// order. A nil old table stands for an empty table of the same shape, so
// the result is the full dump of new_'s populated entries. The summary
// counts match Diff. Shapes must agree (it panics otherwise, like Diff).
func EntryDiff(old, new_ *Table) ([]DeltaEntry, TableDelta) {
	if old != nil && (len(old.next) != len(new_.next) || len(old.dests) != len(new_.dests)) {
		panic("routing: EntryDiff over differently shaped tables")
	}
	cols := len(new_.dests)
	var entries []DeltaEntry
	var delta TableDelta
	for i := range new_.next {
		a := graph.NoChannel
		if old != nil {
			a = old.next[i]
		}
		b := new_.next[i]
		if a == b {
			if a != graph.NoChannel {
				delta.Same++
			}
			continue
		}
		switch {
		case a == graph.NoChannel:
			delta.Added++
		case b == graph.NoChannel:
			delta.Removed++
		default:
			delta.Changed++
		}
		entries = append(entries, DeltaEntry{Row: int32(i / cols), Col: int32(i % cols), Next: b})
	}
	return entries, delta
}

// ApplyDelta applies entry changes to the table in place. Entries must
// lie within the table's shape (it panics otherwise); DecodeDelta output
// for a matching shape always does.
func (t *Table) ApplyDelta(entries []DeltaEntry) {
	rows, cols := t.Shape()
	for _, e := range entries {
		if int(e.Row) >= rows || int(e.Col) >= cols || e.Row < 0 || e.Col < 0 {
			panic(fmt.Sprintf("routing: ApplyDelta entry (%d,%d) outside %dx%d table", e.Row, e.Col, rows, cols))
		}
		t.next[int(e.Row)*cols+int(e.Col)] = e.Next
	}
}

// Binary delta wire format (versioned, self-checking):
//
//	magic   "NuD1" (4 bytes)
//	uvarint rows, cols, count
//	count entries, sorted by position = row*cols+col:
//	        uvarint position delta (absolute for the first entry,
//	        strictly positive gap afterwards)
//	        uvarint next+1 (0 encodes NoChannel, i.e. a cleared entry)
//	crc32   IEEE over everything above (4 bytes little-endian)
//
// The CRC makes the payload self-checking: any single-bit corruption is
// detected by DecodeDelta, which is what lets a distribution agent
// reject a damaged frame instead of installing a partial table.
var deltaMagic = [4]byte{'N', 'u', 'D', '1'}

// ErrDeltaCorrupt is returned (wrapped) by DecodeDelta for any payload
// that fails structural validation or its checksum.
var ErrDeltaCorrupt = errors.New("routing: corrupt table delta")

// EncodeDelta appends the binary encoding of an entry-level delta for a
// rows x cols table to buf and returns the extended slice. Entries must
// be sorted by (Row, Col) ascending with no duplicates and lie within
// the shape (EntryDiff output always qualifies); it panics otherwise.
func EncodeDelta(buf []byte, rows, cols int, entries []DeltaEntry) []byte {
	start := len(buf)
	buf = append(buf, deltaMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(rows))
	buf = binary.AppendUvarint(buf, uint64(cols))
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	prev := int64(-1)
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			panic(fmt.Sprintf("routing: EncodeDelta entry (%d,%d) outside %dx%d table", e.Row, e.Col, rows, cols))
		}
		pos := int64(e.Row)*int64(cols) + int64(e.Col)
		if pos <= prev {
			panic("routing: EncodeDelta entries not strictly ascending")
		}
		if prev < 0 {
			buf = binary.AppendUvarint(buf, uint64(pos))
		} else {
			buf = binary.AppendUvarint(buf, uint64(pos-prev))
		}
		prev = pos
		buf = binary.AppendUvarint(buf, uint64(uint32(e.Next+1)))
	}
	sum := crc32.ChecksumIEEE(buf[start:])
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// DecodeDelta parses an EncodeDelta payload, validating the checksum and
// every structural invariant. It returns the declared shape and the
// decoded entries (nil for an empty delta).
func DecodeDelta(data []byte) (rows, cols int, entries []DeltaEntry, err error) {
	fail := func(reason string) (int, int, []DeltaEntry, error) {
		return 0, 0, nil, fmt.Errorf("%w: %s", ErrDeltaCorrupt, reason)
	}
	if len(data) < len(deltaMagic)+4 {
		return fail("short payload")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fail("checksum mismatch")
	}
	if [4]byte(body[:4]) != deltaMagic {
		return fail("bad magic")
	}
	body = body[4:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	r, ok1 := next()
	c, ok2 := next()
	count, ok3 := next()
	if !ok1 || !ok2 || !ok3 {
		return fail("truncated header")
	}
	total := r * c
	if r > 1<<24 || c > 1<<24 || count > total {
		return fail("implausible shape or count")
	}
	// The declared shape bounds count only by 2^48 and the CRC is no
	// secret; every entry takes at least two bytes, so the payload's own
	// length is the bound that makes the allocation below safe.
	if count > uint64(len(body))/2 {
		return fail("more entries declared than the payload holds")
	}
	pos := int64(-1)
	entries = make([]DeltaEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		gap, ok := next()
		if !ok {
			return fail("truncated entry position")
		}
		if gap >= total {
			return fail("entry position outside table")
		}
		if pos < 0 {
			pos = int64(gap)
		} else {
			if gap == 0 {
				return fail("non-ascending entry position")
			}
			pos += int64(gap)
		}
		if pos >= int64(total) {
			return fail("entry position outside table")
		}
		raw, ok := next()
		if !ok {
			return fail("truncated entry value")
		}
		if raw > 1<<31 {
			return fail("channel out of range")
		}
		entries = append(entries, DeltaEntry{
			Row:  int32(pos / int64(c)),
			Col:  int32(pos % int64(c)),
			Next: graph.ChannelID(int32(raw) - 1),
		})
	}
	if len(body) != 0 {
		return fail("trailing bytes")
	}
	if count == 0 {
		entries = nil
	}
	return int(r), int(c), entries, nil
}
