package dial

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// compareEntries is the comparator buckets were sorted with before the
// radix sort: (key, item), lexicographic.
func compareEntries(a, b entry) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.item) - int(b.item)
}

// entryBytes is the fuzz encoding of one entry: the key's IEEE-754 bits
// and the item, little-endian.
const entryBytes = 12

func encodeEntries(es []entry) []byte {
	var b []byte
	for _, e := range es {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.key))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.item))
	}
	return b
}

// decodeEntries reads whole entries from data, folding each into the
// queue's contract: a NaN or infinite key keeps its mantissa bits only, a
// negative one its magnitude (−0 stays −0), and an item drops its sign bit.
func decodeEntries(data []byte) []entry {
	es := make([]entry, 0, len(data)/entryBytes)
	for ; len(data) >= entryBytes; data = data[entryBytes:] {
		bits := binary.LittleEndian.Uint64(data)
		k := math.Float64frombits(bits)
		if math.IsNaN(k) || math.IsInf(k, 0) {
			k = math.Float64frombits(bits & (1<<52 - 1))
		}
		if k < 0 {
			k = -k
		}
		item := int32(binary.LittleEndian.Uint32(data[8:]) &^ (1 << 31))
		es = append(es, entry{key: k, item: item})
	}
	return es
}

// mixedEntries draws n entries that hold every case the radix sort must
// get right at once: −0 beside +0, duplicate (key, item) pairs, keys of
// bucket 0 spread over many exponents, keys sharing their integer part,
// and items at and above 2¹⁶.
func mixedEntries(rng *rand.Rand, n int) []entry {
	es := make([]entry, 0, n)
	for len(es) < n {
		var k float64
		switch rng.Intn(5) {
		case 0:
			k = math.Copysign(0, -float64(rng.Intn(2)))
		case 1:
			k = math.Ldexp(1+rng.Float64(), -1-rng.Intn(1075)) // [0, 1), subnormals included
		case 2:
			k = 7 + float64(rng.Intn(4))/4
		default:
			k = 7 + rng.Float64()
		}
		item := int32(rng.Intn(8))
		if rng.Intn(2) == 0 {
			item = int32(1<<16 + rng.Intn(1<<20))
		}
		es = append(es, entry{key: k, item: item})
		if rng.Intn(6) == 0 && len(es) < n {
			es = append(es, es[rng.Intn(len(es))]) // a duplicate pair
		}
	}
	return es
}

// FuzzBucketSort holds sortEntries to the comparator it replaced on
// arbitrary buckets: the sorted (key, item) sequences must be equal, with
// −0 and +0 equal keys as they are to the pop check.
func FuzzBucketSort(f *testing.F) {
	f.Add(encodeEntries([]entry{{math.Copysign(0, -1), 3}, {0, 1}, {0, 3}, {math.Copysign(0, -1), 1}}))
	f.Add(encodeEntries([]entry{{2.5, 9}, {2.5, 9}, {2.25, 1 << 20}, {2.5, 9}, {2.25, 1 << 16}}))
	f.Add(encodeEntries([]entry{{0.5, 1}, {0.25, 1}, {1e-300, 2}, {5e-324, 3}, {math.Nextafter(1, 0), 4}, {0, 5}}))
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 3 * radixCutoff} {
		f.Add(encodeEntries(mixedEntries(rng, n)))
	}
	q := New(0)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeEntries(data)
		want := slices.Clone(in)
		slices.SortFunc(want, compareEntries)
		got := slices.Clone(in)
		q.sortEntries(got)
		for i := range want {
			if got[i].key != want[i].key || got[i].item != want[i].item {
				t.Fatalf("n=%d: entry %d is (%v, %d), the comparator puts (%v, %d) there",
					len(in), i, got[i].key, got[i].item, want[i].key, want[i].item)
			}
		}
	})
}

// TestRecordedNueStream replays a queue's calls recorded from a Nue route
// and requires every result the comparator-sorted queue gave. The stream
// is every Insert, InsertOrDecrease, ExtractMin and Reset core.Route made
// on layer 0's queue while routing its 100th and 101st destination, on
// the 8x8x8 torus with one terminal per switch toward all 512 terminals
// (seed 1, 4 layers, one worker). Its keys carry the fractional weights
// of a balanced layer, and several buckets are long enough for the radix
// path.
func TestRecordedNueStream(t *testing.T) {
	f, err := os.Open("testdata/torus512-stream.bin.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The stream is a uvarint capacity, then per call one byte: 'I'
	// Insert, 'D'/'d' InsertOrDecrease that returned true/false (each
	// followed by a uvarint item and the key's bits), 'E' ExtractMin that
	// popped (a uvarint item), 'e' ExtractMin on an empty queue, 'R' Reset.
	r := bytes.NewReader(raw)
	capacity, err := binary.ReadUvarint(r)
	if err != nil {
		t.Fatal(err)
	}
	q := New(int(capacity))
	// longBuckets counts the buckets of at least radixCutoff entries the
	// cursor drained, each sorted by the radix path as it was entered.
	pops, longBuckets, lastLong := 0, 0, -1
	for call := 0; ; call++ {
		op, err := r.ReadByte()
		if err == io.EOF {
			break
		}
		var item uint64
		var key float64
		switch op {
		case 'I', 'D', 'd':
			item, _ = binary.ReadUvarint(r)
			var kb [8]byte
			if _, err := io.ReadFull(r, kb[:]); err != nil {
				t.Fatalf("call %d: %v", call, err)
			}
			key = math.Float64frombits(binary.LittleEndian.Uint64(kb[:]))
		case 'E':
			item, _ = binary.ReadUvarint(r)
		}
		switch op {
		case 'I':
			q.Insert(int(item), key)
		case 'D', 'd':
			if got := q.InsertOrDecrease(int(item), key); got != (op == 'D') {
				t.Fatalf("call %d: InsertOrDecrease(%d, %v) = %v, recorded %v", call, item, key, got, op == 'D')
			}
		case 'E', 'e':
			got, ok := q.ExtractMin()
			if ok != (op == 'E') || ok && got != int(item) {
				t.Fatalf("call %d (pop %d): ExtractMin = (%d, %v), recorded (%d, %v)", call, pops, got, ok, item, op == 'E')
			}
			pops++
			if ok && q.cur != lastLong && len(q.buckets[q.cur]) >= radixCutoff {
				longBuckets++
				lastLong = q.cur
			}
		case 'R':
			q.Reset()
			lastLong = -1
		default:
			t.Fatalf("call %d: unknown op %q", call, op)
		}
	}
	if longBuckets == 0 {
		t.Fatalf("the stream drained no bucket of %d or more entries: the radix path went untested", radixCutoff)
	}
	t.Logf("%d pops, %d buckets of %d or more entries", pops, longBuckets, radixCutoff)
}
