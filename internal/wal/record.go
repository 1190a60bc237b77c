package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"tscds/internal/core"
)

// OpKind labels a logged update.
type OpKind uint8

// Logged operation kinds. Only updates that succeeded in memory are
// logged, so per key the log alternates insert/delete — the property
// that makes redundant replay over a snapshot converge.
const (
	OpInsert OpKind = 1
	OpDelete OpKind = 2
)

// Record is one logged update. TS is the op's source timestamp, read
// after the in-memory apply under the same per-shard serialization
// that orders the log, so per shard the TS sequence is monotone and
// log order is linearization order. Key is the user key, so a log replays
// correctly into any structure. Val is meaningful for inserts only.
type Record struct {
	TS  uint64
	Op  OpKind
	Key uint64
	Val uint64
}

// Pair is one snapshot entry: a collected key-value pair, written as the
// read returned it.
type Pair = core.KV

// recordSize is the fixed on-disk record size:
// crc32c(4) | ts(8) | op(1) | key(8) | val(8).
const recordSize = 4 + 8 + 1 + 8 + 8

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64, matching the hardware-timestamp spirit of the library).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord encodes r onto dst, in place: a local array would move
// to the heap through crc32.Checksum on every record.
func appendRecord(dst []byte, r Record) []byte {
	n := len(dst)
	dst = slices.Grow(dst, recordSize)[:n+recordSize]
	b := dst[n:]
	binary.LittleEndian.PutUint64(b[4:], r.TS)
	b[12] = byte(r.Op)
	binary.LittleEndian.PutUint64(b[13:], r.Key)
	binary.LittleEndian.PutUint64(b[21:], r.Val)
	binary.LittleEndian.PutUint32(b[0:], crc32.Checksum(b[4:], castagnoli))
	return dst
}

// decodeRecord decodes the record at the front of b, reporting whether
// its checksum (and op byte) are intact. b must hold recordSize bytes.
func decodeRecord(b []byte) (Record, bool) {
	want := binary.LittleEndian.Uint32(b[0:])
	if crc32.Checksum(b[4:recordSize], castagnoli) != want {
		return Record{}, false
	}
	r := Record{
		TS:  binary.LittleEndian.Uint64(b[4:]),
		Op:  OpKind(b[12]),
		Key: binary.LittleEndian.Uint64(b[13:]),
		Val: binary.LittleEndian.Uint64(b[21:]),
	}
	if r.Op != OpInsert && r.Op != OpDelete {
		return Record{}, false
	}
	return r, true
}

// Segment header layout: magic(8) | crc32c(4) | runID(8) | shard(4) |
// seq(8). The crc covers everything after itself. runID is the run
// generation: hardware timestamps reset across reboots, so raw TS
// values are only comparable within a run, and all cut comparisons are
// lexicographic on (runID, ts).
const (
	segMagic   = "TSCWAL01"
	segHdrSize = 8 + 4 + 8 + 4 + 8
)

func encodeSegHeader(runID uint64, shard int, seq uint64) []byte {
	b := make([]byte, segHdrSize)
	copy(b, segMagic)
	binary.LittleEndian.PutUint64(b[12:], runID)
	binary.LittleEndian.PutUint32(b[20:], uint32(shard))
	binary.LittleEndian.PutUint64(b[24:], seq)
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[12:], castagnoli))
	return b
}

// decodeSegHeader validates the header at the front of b and returns
// the run generation. Returns false for a short, torn or mismatched
// header — which recovery treats as a torn (empty) segment when the
// file is the shard's newest, and as corruption otherwise.
func decodeSegHeader(b []byte) (runID uint64, shard int, seq uint64, ok bool) {
	if len(b) < segHdrSize || string(b[:8]) != segMagic {
		return 0, 0, 0, false
	}
	if crc32.Checksum(b[12:segHdrSize], castagnoli) != binary.LittleEndian.Uint32(b[8:]) {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[12:]),
		int(binary.LittleEndian.Uint32(b[20:])),
		binary.LittleEndian.Uint64(b[24:]),
		true
}

// segName names shard sh's seq'th segment file.
func segName(sh int, seq uint64) string {
	return fmt.Sprintf("wal-%04d-%012d.log", sh, seq)
}

// parseSegName inverts segName.
func parseSegName(name string) (sh int, seq uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "wal-%d-%d.log", &sh, &seq); err != nil || segName(sh, seq) != name {
		return 0, 0, false
	}
	return sh, seq, true
}

// Snapshot file layout: magic(8) | crc32c(4) | runID(8) | ts(8) |
// count(8) | count * (key(8) val(8)). The crc covers everything after
// itself, so any torn or bit-flipped snapshot is detected whole-file
// and recovery falls back to the previous one.
const (
	snapMagic   = "TSCSNP01"
	snapHdrSize = 8 + 4 + 8 + 8 + 8
)

func encodeSnapshot(runID, ts uint64, kvs []Pair) []byte {
	b := make([]byte, snapHdrSize+16*len(kvs))
	copy(b, snapMagic)
	binary.LittleEndian.PutUint64(b[12:], runID)
	binary.LittleEndian.PutUint64(b[20:], ts)
	binary.LittleEndian.PutUint64(b[28:], uint64(len(kvs)))
	off := snapHdrSize
	for _, kv := range kvs {
		binary.LittleEndian.PutUint64(b[off:], kv.Key)
		binary.LittleEndian.PutUint64(b[off+8:], kv.Val)
		off += 16
	}
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[12:], castagnoli))
	return b
}

// decodeSnapshot validates and decodes a snapshot image.
func decodeSnapshot(b []byte) (runID, ts uint64, kvs []Pair, ok bool) {
	if len(b) < snapHdrSize || string(b[:8]) != snapMagic {
		return 0, 0, nil, false
	}
	if crc32.Checksum(b[12:], castagnoli) != binary.LittleEndian.Uint32(b[8:]) {
		return 0, 0, nil, false
	}
	count := binary.LittleEndian.Uint64(b[28:])
	if uint64(len(b)-snapHdrSize) != 16*count {
		return 0, 0, nil, false
	}
	kvs = make([]Pair, count)
	off := snapHdrSize
	for i := range kvs {
		kvs[i] = Pair{
			Key: binary.LittleEndian.Uint64(b[off:]),
			Val: binary.LittleEndian.Uint64(b[off+8:]),
		}
		off += 16
	}
	return binary.LittleEndian.Uint64(b[12:]), binary.LittleEndian.Uint64(b[20:]), kvs, true
}

// snapName names the snapshot taken at (runID, ts). Lexicographic name
// order equals (runID, ts) order, so directory listings sort newest-
// last without reading headers.
func snapName(runID, ts uint64) string {
	return fmt.Sprintf("snap-%016x-%016x.dat", runID, ts)
}

// parseSnapName inverts snapName.
func parseSnapName(name string) (runID, ts uint64, ok bool) {
	if _, err := fmt.Sscanf(name, "snap-%x-%x.dat", &runID, &ts); err != nil || snapName(runID, ts) != name {
		return 0, 0, false
	}
	return runID, ts, true
}
