package distrib

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"repro/internal/freelist"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Epoch is one immutable routing epoch handed to the Source — the
// distribution view of a fabric.Snapshot (the package defines its own
// type so fabric need not import distrib nor vice versa).
type Epoch struct {
	Seq    uint64
	Net    *graph.Network
	Result *routing.Result
}

// CompiledEpoch is an Epoch seen as per-switch linear forwarding
// tables: one row of next-hop channels per switch, in ascending switch
// ID order (which equals the routing table's row order), with what the
// protocol needs to know about each row without reading it again — its
// CRC and its share of a full push. The rows themselves are
// the epoch's routing.Table: publication is the point after which a
// table is immutable, so a compiled epoch holds no copy of it.
type CompiledEpoch struct {
	Epoch
	// Rows and Cols are the table shape.
	Rows, Cols int
	// Switches[i] is the switch owning row i (ascending IDs): the
	// network's own Net.RowSwitches() (do not modify).
	Switches []graph.NodeID
	// LFTs[i] is row i, the next-hop channel per destination column:
	// Result.Table.Row(Switches[i]), a view (do not modify).
	LFTs [][]graph.ChannelID
	// CRCs[i] is RowCRC(LFTs[i]).
	CRCs []uint32
	// sizes[i] is row i's share of a full push's MsgDelta payload: one
	// position byte per column (each entry follows the one before it)
	// plus the uvarint of next+1 of each.
	sizes []int32
}

// RowCRC is the canonical checksum of one LFT row: CRC-32 (IEEE) over
// the little-endian uint32 encoding of next+1 per column. Agents and
// the source compute it independently; a staged row is installable only
// if both sides agree.
func RowCRC(row []graph.ChannelID) uint32 {
	w := getCRCWords()
	defer crcScratch.Put(w)
	sum, _ := w.rowSum(row)
	return sum
}

// rowSum reads a row once for both of the things a compiled epoch keeps
// about it: RowCRC(row) and its share of a full push (sizes).
func (w *crcWords) rowSum(row []graph.ChannelID) (crc uint32, fullBytes int) {
	w.crc, w.n = 0, 0
	fullBytes = len(row)
	for _, ch := range row {
		v := uint32(ch + 1)
		w.add(v)
		fullBytes += uvarintLen(uint64(v))
	}
	return w.sum32(), fullBytes
}

// crcWords computes CRC-32 (IEEE) over a sequence of little-endian uint32
// words. It encodes the words into its buffer and hands the buffer to
// crc32.Update when full, instead of updating once per word; CRC is a
// streaming function, so the checksum is the same. A buffer handed to
// crc32.Update escapes to the heap, so the buffers are recycled.
type crcWords struct {
	crc uint32
	n   int
	buf [512]byte
}

// crcScratch recycles crcWords (DESIGN §8).
var crcScratch freelist.List[crcWords]

// getCRCWords returns an empty crcWords from the free list.
func getCRCWords() *crcWords {
	w := crcScratch.Get()
	w.crc, w.n = 0, 0
	return w
}

func (w *crcWords) add(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[w.n:], v)
	if w.n += 4; w.n == len(w.buf) {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[:])
		w.n = 0
	}
}

func (w *crcWords) sum32() uint32 { return crc32.Update(w.crc, crc32.IEEETable, w.buf[:w.n]) }

// uvarintLen is len(binary.AppendUvarint(nil, v)).
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// FleetCRC aggregates row CRCs into one checksum over a row sequence:
// CRC-32 over the little-endian concatenation of the per-row CRCs. The
// same aggregation over the same switch order is computed by agents, so
// a single u32 in each ack cross-checks an entire staged table set.
func FleetCRC(crcs []uint32) uint32 {
	w := getCRCWords()
	defer crcScratch.Put(w)
	for _, c := range crcs {
		w.add(c)
	}
	return w.sum32()
}

// Compile lowers an epoch's forwarding table into per-switch LFTs.
func Compile(e Epoch) *CompiledEpoch {
	t := e.Result.Table
	rows, cols := t.Shape()
	c := &CompiledEpoch{
		Epoch:    e,
		Rows:     rows,
		Cols:     cols,
		Switches: e.Net.RowSwitches(),
		LFTs:     make([][]graph.ChannelID, rows),
		CRCs:     make([]uint32, rows),
		sizes:    make([]int32, rows),
	}
	if len(c.Switches) != rows {
		panic(fmt.Sprintf("distrib: %d switches for %d table rows", len(c.Switches), rows))
	}
	w := getCRCWords()
	defer crcScratch.Put(w)
	for i, sw := range c.Switches {
		if t.RowIndex(sw) != int32(i) {
			panic(fmt.Sprintf("distrib: switch %d owns row %d, expected %d", sw, t.RowIndex(sw), i))
		}
		row := t.Row(sw)
		crc, size := w.rowSum(row)
		c.LFTs[i], c.CRCs[i], c.sizes[i] = row, crc, int32(size)
	}
	return c
}

// OwnedCRC returns the aggregate checksum an agent owning the given
// switches (nil = all) must report for this epoch — the reference value
// of a torn-install check.
func (c *CompiledEpoch) OwnedCRC(owned []graph.NodeID) uint32 {
	return c.fleetCRCFor(c.appendOwnedRows(nil, owned))
}

// appendOwnedRows resolves an ownership list (nil = all switches) to row
// indices in ascending order, skipping unknown switches, and appends
// them to rows. The list is what an agent's Hello said; RowIndex answers
// -1 for any ID that is not a switch of the fabric, whatever its value.
func (c *CompiledEpoch) appendOwnedRows(rows []int, owned []graph.NodeID) []int {
	if owned == nil {
		for i := range c.Rows {
			rows = append(rows, i)
		}
		return rows
	}
	for _, sw := range owned {
		if i := c.Result.Table.RowIndex(sw); i >= 0 {
			rows = append(rows, int(i))
		}
	}
	return rows
}

// appendRowSums appends the MsgPrepare checksum list of a row set to
// sums.
func (c *CompiledEpoch) appendRowSums(sums []RowSum, rows []int) []RowSum {
	for _, r := range rows {
		sums = append(sums, RowSum{Switch: c.Switches[r], CRC: c.CRCs[r]})
	}
	return sums
}

// fleetCRCFor aggregates the row CRCs of a row set: FleetCRC of them.
func (c *CompiledEpoch) fleetCRCFor(rows []int) uint32 {
	w := getCRCWords()
	defer crcScratch.Put(w)
	for _, r := range rows {
		w.add(c.CRCs[r])
	}
	return w.sum32()
}

// fullSize returns the entry bytes of a full push of a row set — the
// denominator of the delta-compression ratio.
func (c *CompiledEpoch) fullSize(rows []int) int {
	n := 0
	for _, r := range rows {
		n += int(c.sizes[r])
	}
	return n
}

// deltaEntries appends to dst the local-row-space delta from base for
// the given row set: entries transforming base's rows into c's, with Row
// rewritten to the position within the set (the agent's local row
// index). A nil base is the empty table, so the delta is every entry of
// the rows, NoChannel included. It counts the entries first, so dst grows
// at most once, to exactly their number. base must share the epoch shape;
// callers guard that.
func (c *CompiledEpoch) deltaEntries(dst []routing.DeltaEntry, base *CompiledEpoch, rows []int) []routing.DeltaEntry {
	n := len(rows) * c.Cols
	if base != nil {
		n = 0
		for _, r := range rows {
			oldRow, newRow := base.LFTs[r], c.LFTs[r]
			for col := range newRow {
				if oldRow[col] != newRow[col] {
					n++
				}
			}
		}
	}
	dst = slices.Grow(dst, n)
	for local, r := range rows {
		for col, next := range c.LFTs[r] {
			if base == nil || base.LFTs[r][col] != next {
				dst = append(dst, routing.DeltaEntry{Row: int32(local), Col: int32(col), Next: next})
			}
		}
	}
	return dst
}
