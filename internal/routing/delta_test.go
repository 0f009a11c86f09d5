package routing

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// deltaNet builds a 4-switch line with one terminal on each end switch.
func deltaNet(t *testing.T) *graph.Network {
	t.Helper()
	b := graph.NewBuilder()
	sw := make([]graph.NodeID, 4)
	for i := range sw {
		sw[i] = b.AddSwitch("")
	}
	for i := 0; i+1 < len(sw); i++ {
		b.AddLink(sw[i], sw[i+1])
	}
	t0 := b.AddTerminal("")
	b.AddLink(t0, sw[0])
	t1 := b.AddTerminal("")
	b.AddLink(t1, sw[3])
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestCloneClearDiff(t *testing.T) {
	net := deltaNet(t)
	dests := net.Terminals()
	old := NewTable(net, dests)
	// Route both terminals along the line.
	for _, d := range dests {
		att := net.TerminalSwitch(d)
		for _, s := range net.Switches() {
			if s == att {
				old.Set(s, d, net.FindChannel(s, d))
				continue
			}
			step := graph.NodeID(1)
			if att < s {
				step = -1
			}
			old.Set(s, d, net.FindChannel(s, s+step))
		}
	}
	cp := old.Clone(nil)
	if d := Diff(old, cp); d.Same != 8 || d.Changed+d.Added+d.Removed != 0 {
		t.Fatalf("clone diff = %+v, want 8 identical entries", d)
	}
	if d := Diff(old, cp); d.UnchangedFraction() != 1 {
		t.Fatalf("unchanged fraction = %v, want 1", d.UnchangedFraction())
	}
	d0 := dests[0]
	cp.ClearDest(d0)
	for _, s := range net.Switches() {
		if cp.Next(s, d0) != graph.NoChannel {
			t.Fatalf("ClearDest left entry at switch %d", s)
		}
	}
	d := Diff(old, cp)
	if d.Removed != 4 || d.Same != 4 {
		t.Fatalf("diff after ClearDest = %+v, want 4 removed / 4 same", d)
	}
	// Mutating the clone must not affect the original.
	if old.Next(1, d0) == graph.NoChannel {
		t.Fatal("Clone shares entry storage with original")
	}
}

// lineTable routes both terminals of deltaNet along the line.
func lineTable(t *testing.T, net *graph.Network) *Table {
	t.Helper()
	dests := net.Terminals()
	tbl := NewTable(net, dests)
	for _, d := range dests {
		att := net.TerminalSwitch(d)
		for _, s := range net.Switches() {
			if s == att {
				tbl.Set(s, d, net.FindChannel(s, d))
				continue
			}
			step := graph.NodeID(1)
			if att < s {
				step = -1
			}
			tbl.Set(s, d, net.FindChannel(s, s+step))
		}
	}
	return tbl
}

// tablesEqual compares two tables entry by entry.
func tablesEqual(a, b *Table) bool {
	d := Diff(a, b)
	return d.Changed+d.Added+d.Removed == 0
}

// install writes delta entries into t the way an agent installs them:
// row r is the r-th switch (see RowIndex), column c the c-th destination.
func install(t *Table, entries []DeltaEntry) {
	sws := t.net.Switches()
	for _, e := range entries {
		t.Set(sws[e.Row], t.dests[e.Col], e.Next)
	}
}

func TestEntryDiffMatchesDiff(t *testing.T) {
	net := deltaNet(t)
	old := lineTable(t, net)
	new_ := old.Clone(nil)
	d0, d1 := net.Terminals()[0], net.Terminals()[1]
	new_.ClearDest(d0)                                  // removed entries
	new_.Set(net.Switches()[1], d1, graph.ChannelID(0)) // changed entry
	entries, summary := EntryDiff(old, new_)
	if want := Diff(old, new_); summary != want {
		t.Fatalf("EntryDiff summary %+v != Diff %+v", summary, want)
	}
	if len(entries) != summary.Changed+summary.Added+summary.Removed {
		t.Fatalf("%d entries for summary %+v", len(entries), summary)
	}
	// Installing the delta on a copy of old reproduces new exactly.
	patched := old.Clone(nil)
	install(patched, entries)
	if !tablesEqual(patched, new_) {
		t.Fatal("installing EntryDiff(old,new) on old did not reproduce new")
	}
	// Cleared entries round as NoChannel, not as absent.
	found := false
	for _, e := range entries {
		if e.Next == graph.NoChannel {
			found = true
		}
	}
	if !found {
		t.Fatal("EntryDiff lost the cleared entries")
	}
}

func TestEntryDiffNilOldIsFullDump(t *testing.T) {
	net := deltaNet(t)
	tbl := lineTable(t, net)
	entries, summary := EntryDiff(nil, tbl)
	if summary.Added != 8 || summary.Changed+summary.Removed+summary.Same != 0 {
		t.Fatalf("full dump summary = %+v, want 8 added", summary)
	}
	fresh := NewTable(net, net.Terminals())
	install(fresh, entries)
	if !tablesEqual(fresh, tbl) {
		t.Fatal("full-dump delta did not rebuild the table")
	}
}

// roundTrip encodes and decodes a delta, failing the test on any
// mismatch, and returns the encoding.
func roundTrip(t *testing.T, rows, cols int, entries []DeltaEntry) []byte {
	t.Helper()
	buf := EncodeDelta(nil, rows, cols, entries)
	r, c, got, err := DecodeDelta(buf)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	if r != rows || c != cols {
		t.Fatalf("shape %dx%d, want %dx%d", r, c, rows, cols)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i] != entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], entries[i])
		}
	}
	return buf
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	// Empty diff: a valid, minimal payload.
	roundTrip(t, 4, 2, nil)
	// Zero-shape table (no destinations).
	roundTrip(t, 0, 0, nil)
	// Cleared entry (NoChannel), first-position entry, last-position
	// entry, and a large channel ID in one payload.
	roundTrip(t, 3, 3, []DeltaEntry{
		{Row: 0, Col: 0, Next: graph.NoChannel},
		{Row: 1, Col: 2, Next: 0},
		{Row: 2, Col: 2, Next: 1<<31 - 2},
	})
	// Full-table dump from a nil old table.
	net := deltaNet(t)
	tbl := lineTable(t, net)
	rows, cols := tbl.Shape()
	entries, _ := EntryDiff(nil, tbl)
	roundTrip(t, rows, cols, entries)
	// Appending to a non-empty buffer leaves the prefix alone.
	buf := EncodeDelta([]byte("prefix"), rows, cols, entries)
	if string(buf[:6]) != "prefix" {
		t.Fatal("EncodeDelta clobbered the prefix")
	}
	if _, _, _, err := DecodeDelta(buf[6:]); err != nil {
		t.Fatalf("decode after prefix append: %v", err)
	}
}

func TestDeltaCodecRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows, cols := rng.Intn(20), 1+rng.Intn(20)
		var entries []DeltaEntry
		for pos := 0; pos < rows*cols; pos++ {
			if rng.Intn(3) != 0 {
				continue
			}
			entries = append(entries, DeltaEntry{
				Row:  int32(pos / cols),
				Col:  int32(pos % cols),
				Next: graph.ChannelID(rng.Intn(1000) - 1),
			})
		}
		roundTrip(t, rows, cols, entries)
	}
}

func TestDeltaCodecDetectsCorruption(t *testing.T) {
	net := deltaNet(t)
	tbl := lineTable(t, net)
	rows, cols := tbl.Shape()
	entries, _ := EntryDiff(nil, tbl)
	buf := EncodeDelta(nil, rows, cols, entries)
	// Any single corrupted byte must be rejected (the CRC catches every
	// single-byte change), including in the CRC itself.
	for i := range buf {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), buf...)
			mut[i] ^= flip
			if _, _, _, err := DecodeDelta(mut); err == nil {
				t.Fatalf("corruption at byte %d (^%#x) went undetected", i, flip)
			} else if !errors.Is(err, ErrDeltaCorrupt) {
				t.Fatalf("corruption error not ErrDeltaCorrupt: %v", err)
			}
		}
	}
	// Every truncation must be rejected too.
	for n := 0; n < len(buf); n++ {
		if _, _, _, err := DecodeDelta(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// sealDelta frames a hand-written delta body the way EncodeDelta does:
// magic in front, CRC behind. The CRC is no secret, so a hostile sender
// can do the same.
func sealDelta(header ...uint64) []byte {
	buf := append([]byte(nil), deltaMagic[:]...)
	for _, v := range header {
		buf = binary.AppendUvarint(buf, v)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestDecodeDeltaBoundsCountByPayload: a 22-byte payload that declares a
// 2^24 x 2^24 table and 2^40 entries passes the shape check, and the
// decoder used to size its result from the declared count — terabytes,
// a fatal out-of-memory in the agent, which decodes before it checks
// anything else. The payload's own length bounds what is allocated.
func TestDecodeDeltaBoundsCountByPayload(t *testing.T) {
	payload := sealDelta(1<<24, 1<<24, 1<<40)
	if len(payload) != 22 {
		t.Fatalf("payload is %d bytes, want 22", len(payload))
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, _, err := DecodeDelta(payload); !errors.Is(err, ErrDeltaCorrupt) {
			t.Fatalf("DecodeDelta = %v, want ErrDeltaCorrupt", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 16*uint64(len(payload)) {
		t.Errorf("rejecting a %d-byte payload allocated %d bytes", len(payload), perRun)
	}
	// A position gap past the table (or past int64) is refused before it
	// is added up, not turned into a negative row.
	if _, _, got, err := DecodeDelta(sealDelta(4, 4, 1, 1<<63+5, 1)); !errors.Is(err, ErrDeltaCorrupt) {
		t.Errorf("overflowing position decoded to %+v, err %v", got, err)
	}
}

// TestRowIsView: a row is the table's own entries, capped so that an
// append cannot reach the next switch's row.
func TestRowIsView(t *testing.T) {
	net := deltaNet(t)
	tbl := lineTable(t, net)
	_, cols := tbl.Shape()
	for _, sw := range net.Switches() {
		row := tbl.Row(sw)
		if len(row) != cols || cap(row) != cols {
			t.Fatalf("row of switch %d has len %d cap %d, want %d and %d", sw, len(row), cap(row), cols, cols)
		}
		if &row[0] != &tbl.next[int(tbl.RowIndex(sw))*cols] {
			t.Fatalf("row of switch %d is a copy, not a view of the table", sw)
		}
		for di, d := range tbl.Dests() {
			if row[di] != tbl.Next(sw, d) {
				t.Fatalf("row[%d] of switch %d = %d, want %d", di, sw, row[di], tbl.Next(sw, d))
			}
		}
		if r := tbl.RowIndex(sw); r < 0 {
			t.Fatalf("RowIndex(%d) = %d", sw, r)
		}
	}
	for _, term := range net.Terminals() {
		if tbl.RowIndex(term) != -1 {
			t.Fatal("terminal owns a table row")
		}
	}
}
