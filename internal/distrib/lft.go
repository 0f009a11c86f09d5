package distrib

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

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
// CRC and the size of its full-sync payload. The rows themselves are
// the epoch's routing.Table: publication is the point after which a
// table is immutable, so a compiled epoch holds no copy of it.
type CompiledEpoch struct {
	Epoch
	// Rows and Cols are the table shape.
	Rows, Cols int
	// Switches[i] is the switch owning row i (ascending IDs).
	Switches []graph.NodeID
	// LFTs[i] is row i, the next-hop channel per destination column:
	// Result.Table.Row(Switches[i]), a view (do not modify).
	LFTs [][]graph.ChannelID
	// CRCs[i] is RowCRC(LFTs[i]).
	CRCs []uint32
	// sizes[i] is len(AppendLFT(nil, Switches[i], LFTs[i])).
	sizes []int32
}

// RowCRC is the canonical checksum of one LFT row: CRC-32 (IEEE) over
// the little-endian uint32 encoding of next+1 per column. Agents and
// the source compute it independently; a staged row is installable only
// if both sides agree.
func RowCRC(row []graph.ChannelID) uint32 {
	sum, _ := rowSum(0, row)
	return sum
}

// rowSum reads switch sw's row once for both of the things a compiled
// epoch keeps about it: RowCRC(row) and len(AppendLFT(nil, sw, row)).
func rowSum(sw graph.NodeID, row []graph.ChannelID) (crc uint32, lftBytes int) {
	var scratch [4]byte
	lftBytes = uvarintLen(uint64(sw)) + uvarintLen(uint64(len(row)))
	for _, ch := range row {
		v := uint32(ch + 1)
		binary.LittleEndian.PutUint32(scratch[:], v)
		crc = crc32.Update(crc, crc32.IEEETable, scratch[:])
		lftBytes += uvarintLen(uint64(v))
	}
	return crc, lftBytes
}

// uvarintLen is len(binary.AppendUvarint(nil, v)).
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// FleetCRC aggregates row CRCs into one checksum over a row sequence:
// CRC-32 over the little-endian concatenation of the per-row CRCs. The
// same aggregation over the same switch order is computed by agents, so
// a single u32 in each ack cross-checks an entire staged table set.
func FleetCRC(crcs []uint32) uint32 {
	var scratch [4]byte
	sum := uint32(0)
	for _, c := range crcs {
		binary.LittleEndian.PutUint32(scratch[:], c)
		sum = crc32.Update(sum, crc32.IEEETable, scratch[:])
	}
	return sum
}

// Compile lowers an epoch's forwarding table into per-switch LFTs.
func Compile(e Epoch) *CompiledEpoch {
	t := e.Result.Table
	rows, cols := t.Shape()
	c := &CompiledEpoch{
		Epoch:    e,
		Rows:     rows,
		Cols:     cols,
		Switches: e.Net.Switches(),
		LFTs:     make([][]graph.ChannelID, rows),
		CRCs:     make([]uint32, rows),
		sizes:    make([]int32, rows),
	}
	if len(c.Switches) != rows {
		panic(fmt.Sprintf("distrib: %d switches for %d table rows", len(c.Switches), rows))
	}
	for i, sw := range c.Switches {
		if t.RowIndex(sw) != int32(i) {
			panic(fmt.Sprintf("distrib: switch %d owns row %d, expected %d", sw, t.RowIndex(sw), i))
		}
		row := t.Row(sw)
		crc, size := rowSum(sw, row)
		c.LFTs[i], c.CRCs[i], c.sizes[i] = row, crc, int32(size)
	}
	return c
}

// OwnedCRC returns the aggregate checksum an agent owning the given
// switches (nil = all) must report for this epoch — the reference value
// of a torn-install check.
func (c *CompiledEpoch) OwnedCRC(owned []graph.NodeID) uint32 {
	return c.fleetCRCFor(c.ownedRows(owned))
}

// ownedRows resolves an ownership list (nil = all switches) to row
// indices in ascending order, skipping unknown switches. The list is
// what an agent's Hello said; RowIndex answers -1 for any ID that is not
// a switch of the fabric, whatever its value.
func (c *CompiledEpoch) ownedRows(owned []graph.NodeID) []int {
	if owned == nil {
		rows := make([]int, c.Rows)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	rows := make([]int, 0, len(owned))
	for _, sw := range owned {
		if i := c.Result.Table.RowIndex(sw); i >= 0 {
			rows = append(rows, int(i))
		}
	}
	return rows
}

// rowSums builds the MsgPrepare checksum list for a row set.
func (c *CompiledEpoch) rowSums(rows []int) []RowSum {
	sums := make([]RowSum, len(rows))
	for i, r := range rows {
		sums[i] = RowSum{Switch: c.Switches[r], CRC: c.CRCs[r]}
	}
	return sums
}

// fleetCRCFor aggregates the row CRCs of a row set.
func (c *CompiledEpoch) fleetCRCFor(rows []int) uint32 {
	crcs := make([]uint32, len(rows))
	for i, r := range rows {
		crcs[i] = c.CRCs[r]
	}
	return FleetCRC(crcs)
}

// fullSize returns the summed MsgLFT payload size of a row set — the
// denominator of the delta-compression ratio.
func (c *CompiledEpoch) fullSize(rows []int) int {
	n := 0
	for _, r := range rows {
		n += int(c.sizes[r])
	}
	return n
}

// deltaEntries computes the local-row-space delta from base for the
// given row set: entries transforming base's rows into c's, with Row
// rewritten to the position within the set (the agent's local row
// index). base must share the epoch shape; callers guard that.
func (c *CompiledEpoch) deltaEntries(base *CompiledEpoch, rows []int) []routing.DeltaEntry {
	var entries []routing.DeltaEntry
	for local, r := range rows {
		oldRow, newRow := base.LFTs[r], c.LFTs[r]
		for col := range newRow {
			if oldRow[col] != newRow[col] {
				entries = append(entries, routing.DeltaEntry{
					Row: int32(local), Col: int32(col), Next: newRow[col],
				})
			}
		}
	}
	return entries
}
