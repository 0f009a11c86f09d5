package workload

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"
)

// FuzzReadTrace: any input either decodes to flows whose WriteTrace
// encoding is exactly the bytes the decoder consumed, or is refused; it
// never panics, and decoding it allocates at most a constant plus 64
// bytes per input byte, whatever count its header declares. Each input
// is tried as given and with a valid checksum appended, so mutations
// reach the records rather than stop at the CRC. Explore with
//
//	go test -run '^$' -fuzz FuzzReadTrace -fuzztime 60s ./internal/workload/
func FuzzReadTrace(f *testing.F) {
	f.Add(countBomb())
	var rec bytes.Buffer
	if err := WriteTrace(&rec, Generate(testTerminals(f), Single(Uniform{}, 512), 8, Poisson{MeanGap: 3}, 5)); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		readProperties(t, data)
		readProperties(t, binary.LittleEndian.AppendUint32(slices.Clip(data), crc32.ChecksumIEEE(data)))
	})
}

func readProperties(t *testing.T, data []byte) {
	// The fuzzing engine allocates in the same process now and then, so an
	// input over the bound is decoded a second time before it fails.
	flows, alloc, err := readAlloc(data)
	if limit := 4<<20 + 64*uint64(len(data)); alloc > limit {
		if _, alloc, _ = readAlloc(data); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
	}
	if err != nil {
		return
	}
	var again bytes.Buffer
	if err := WriteTrace(&again, flows); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, again.Bytes()) {
		t.Fatalf("%d flows decoded from %d bytes re-encode to %d other bytes", len(flows), len(data), again.Len())
	}
}

// readAlloc decodes data and returns what the process allocated meanwhile.
func readAlloc(data []byte) (flows []Flow, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flows, err = ReadTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	return flows, after.TotalAlloc - before.TotalAlloc, err
}
