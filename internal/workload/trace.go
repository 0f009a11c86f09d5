package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/graph"
)

// Binary trace format (record/replay): a generated workload — or an
// external trace converted into it — reruns bit-identically from the
// file alone. Layout (little-endian):
//
//	magic   [8]byte  "NUEWKLD1"
//	count   uint64   number of flow records
//	records count x {src uint32, dst uint32, bytes uint64,
//	                 start int64, tenant uint16}   (26 bytes each)
//	crc     uint32   IEEE CRC32 over everything above
//
// Encoding is a pure function of the flow slice, so
// encode(decode(encode(f))) is byte-identical — the round-trip tests
// pin both directions.

var traceMagic = [8]byte{'N', 'U', 'E', 'W', 'K', 'L', 'D', '1'}

const traceRecordSize = 4 + 4 + 8 + 8 + 2

// WriteTrace encodes the flows to w in the binary trace format.
func WriteTrace(w io.Writer, flows []Flow) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	var rec [traceRecordSize]byte
	binary.LittleEndian.PutUint64(rec[:8], uint64(len(flows)))
	if _, err := bw.Write(rec[:8]); err != nil {
		return err
	}
	for _, f := range flows {
		binary.LittleEndian.PutUint32(rec[0:], uint32(f.Src))
		binary.LittleEndian.PutUint32(rec[4:], uint32(f.Dst))
		binary.LittleEndian.PutUint64(rec[8:], uint64(f.Bytes))
		binary.LittleEndian.PutUint64(rec[16:], uint64(f.Start))
		binary.LittleEndian.PutUint16(rec[24:], f.Tenant)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	// The CRC covers header + records; flush the payload into the hash
	// before sealing.
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// ReadTrace decodes a trace written by WriteTrace, verifying the CRC.
// The hash is fed exactly the consumed header + records (the buffered
// reader's read-ahead never leaks trailer bytes into it).
func ReadTrace(r io.Reader) ([]Flow, error) {
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<16)
	var head [16]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	crc.Write(head[:])
	if [8]byte(head[:8]) != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", head[:8])
	}
	count := binary.LittleEndian.Uint64(head[8:])
	const maxFlows = 1 << 31 // ~56 GB of records: reject corrupt counts early
	if count > maxFlows {
		return nil, fmt.Errorf("workload: implausible trace flow count %d", count)
	}
	// The header's count is a claim, not a size: presize only what a
	// modest file could hold and let append grow on records that arrive.
	flows := make([]Flow, 0, min(count, 1<<16))
	var rec [traceRecordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("workload: trace record %d: %w", i, err)
		}
		crc.Write(rec[:])
		flows = append(flows, Flow{
			Src:    graph.NodeID(binary.LittleEndian.Uint32(rec[0:])),
			Dst:    graph.NodeID(binary.LittleEndian.Uint32(rec[4:])),
			Bytes:  int64(binary.LittleEndian.Uint64(rec[8:])),
			Start:  int64(binary.LittleEndian.Uint64(rec[16:])),
			Tenant: binary.LittleEndian.Uint16(rec[24:]),
		})
	}
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("workload: trace checksum: %w", err)
	}
	if want := binary.LittleEndian.Uint32(tail[:]); want != crc.Sum32() {
		return nil, fmt.Errorf("workload: trace checksum mismatch: file %08x, computed %08x", want, crc.Sum32())
	}
	return flows, nil
}
