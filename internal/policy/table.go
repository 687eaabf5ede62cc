package policy

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"
)

// Table file layout (little endian):
//
//	off  0  magic   [8]byte   "MCPOLTB1"
//	off  8  version uint32
//	off 12  fleetN  uint32
//	off 16  records uint64
//	off 24  timeQuantum   int64 (ns)
//	off 32  weightQuantum float64 bits
//	off 40  priorHash uint64
//	off 48  buildSeed int64
//	off 56  created   int64 (unix seconds)
//	off 64  note      [32]byte (NUL padded)
//	off 96  checksum  uint64   FNV-1a over the record region
//	off 104 records, 40 bytes each, sorted by fingerprint:
//	        fp uint64 · verify uint64 · delta int64 (ns) ·
//	        gain float64 bits · flags uint64 (bit 0 = sendNow)
//
// The record region is position-independent and fixed-width, so the
// whole file can be mmap-ed read-only and shared page-cache-resident
// across every process serving the same table.

func putHeader(b []byte, magic [8]byte, h Header) {
	copy(b[0:8], magic[:])
	binary.LittleEndian.PutUint32(b[8:], h.Version)
	binary.LittleEndian.PutUint32(b[12:], h.FleetN)
	binary.LittleEndian.PutUint64(b[16:], h.Records)
	binary.LittleEndian.PutUint64(b[24:], uint64(int64(h.TimeQuantum)))
	binary.LittleEndian.PutUint64(b[32:], math.Float64bits(h.WeightQuantum))
	binary.LittleEndian.PutUint64(b[40:], h.PriorHash)
	binary.LittleEndian.PutUint64(b[48:], uint64(h.BuildSeed))
	binary.LittleEndian.PutUint64(b[56:], uint64(h.Created))
	note := h.Note
	if len(note) > noteSize-1 {
		note = note[:noteSize-1]
	}
	for i := range b[64 : 64+noteSize] {
		b[64+i] = 0
	}
	copy(b[64:64+noteSize], note)
	// checksum written separately at offset 96.
}

func parseHeader(b []byte) (magic [8]byte, h Header, checksum uint64) {
	copy(magic[:], b[0:8])
	h.Version = binary.LittleEndian.Uint32(b[8:])
	h.FleetN = binary.LittleEndian.Uint32(b[12:])
	h.Records = binary.LittleEndian.Uint64(b[16:])
	h.TimeQuantum = time.Duration(int64(binary.LittleEndian.Uint64(b[24:])))
	h.WeightQuantum = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
	h.PriorHash = binary.LittleEndian.Uint64(b[40:])
	h.BuildSeed = int64(binary.LittleEndian.Uint64(b[48:]))
	h.Created = int64(binary.LittleEndian.Uint64(b[56:]))
	note := b[64 : 64+noteSize]
	for i, c := range note {
		if c == 0 {
			note = note[:i]
			break
		}
	}
	h.Note = string(note)
	checksum = binary.LittleEndian.Uint64(b[96:])
	return magic, h, checksum
}

func putRecord(b []byte, r Record) {
	binary.LittleEndian.PutUint64(b[0:], r.FP)
	binary.LittleEndian.PutUint64(b[8:], r.Verify)
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(r.Delta)))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.Gain))
	var flags uint64
	if r.SendNow {
		flags |= flagSendNow
	}
	binary.LittleEndian.PutUint64(b[32:], flags)
}

func parseRecord(b []byte) Record {
	return Record{
		FP:      binary.LittleEndian.Uint64(b[0:]),
		Verify:  binary.LittleEndian.Uint64(b[8:]),
		Delta:   time.Duration(int64(binary.LittleEndian.Uint64(b[16:]))),
		Gain:    math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
		SendNow: binary.LittleEndian.Uint64(b[32:])&flagSendNow != 0,
	}
}

// checksumRegion is FNV-1a over a byte region (the record area).
func checksumRegion(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// WriteTable writes a compiled table: records are sorted by fingerprint
// and must be fingerprint-unique (two records under one fingerprint
// with different payloads would make lookups ambiguous; WriteTable
// refuses them — the compiler drops collision captures instead).
func WriteTable(path string, h Header, recs []Record) error {
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	sortRecords(sorted)
	out := sorted[:0]
	for i, r := range sorted {
		if i > 0 && r.FP == out[len(out)-1].FP {
			if r == out[len(out)-1] {
				continue // exact duplicate: collapse
			}
			return fmt.Errorf("policy: conflicting records under fingerprint %016x", r.FP)
		}
		out = append(out, r)
	}

	h.Version = Version
	h.Records = uint64(len(out))
	buf := make([]byte, headerSize+len(out)*recordSize)
	putHeader(buf, magicTable, h)
	for i, r := range out {
		putRecord(buf[headerSize+i*recordSize:], r)
	}
	binary.LittleEndian.PutUint64(buf[96:], checksumRegion(buf[headerSize:]))

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// bucketBits sizes the prefix index built at load time: 2^12 buckets
// over the top fingerprint bits narrow the binary search to n/4096
// records, making the common lookup effectively O(1) while staying
// O(log n) in the worst case.
const bucketBits = 12

// Table is a compiled policy table opened read-only (mmap-ed where the
// platform supports it). Lookup is allocation-free and safe for
// concurrent use: the backing bytes and the index are immutable after
// Open.
type Table struct {
	h      Header
	recs   []byte // record region (view into the mapping)
	n      int
	bucket []uint32
	unmap  func() error
}

// Open loads a table read-only, validating magic, version, size, the
// record-region checksum and the weight quantum, and builds the in-memory
// prefix index.
func Open(path string) (*Table, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	t, err := openBytes(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	t.unmap = unmap
	return t, nil
}

// openBytes checks a table's header against the file — length, magic,
// version, a record count that fits the file exactly, the record
// region's checksum and a positive, finite weight quantum — and builds
// the prefix index over its records, which must be strictly sorted.
func openBytes(data []byte) (*Table, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("policy: file shorter than header (%d bytes)", len(data))
	}
	magic, h, sum := parseHeader(data)
	if magic != magicTable {
		return nil, fmt.Errorf("policy: bad magic %q", magic[:])
	}
	if h.Version != Version {
		return nil, fmt.Errorf("policy: version %d, this build reads %d", h.Version, Version)
	}
	recs := data[headerSize:]
	// The count is checked against the room before it is multiplied: a
	// crafted count can wrap the product back to the file's length.
	if h.Records > uint64(len(recs)/recordSize) || len(recs) != int(h.Records)*recordSize {
		return nil, fmt.Errorf("policy: file is %d bytes, header promises %d records of %d", len(data), h.Records, recordSize)
	}
	if got := checksumRegion(recs); got != sum {
		return nil, fmt.Errorf("policy: record checksum %016x != header %016x (corrupt or truncated table)", got, sum)
	}
	if !(h.WeightQuantum > 0) || math.IsInf(h.WeightQuantum, 1) {
		return nil, fmt.Errorf("policy: weight quantum %g is not positive and finite", h.WeightQuantum)
	}

	t := &Table{h: h, recs: recs, n: int(h.Records)}
	t.bucket = make([]uint32, (1<<bucketBits)+1)
	var prev uint64
	for i := 0; i < t.n; i++ {
		fp := t.fpAt(i)
		if i > 0 && fp <= prev {
			return nil, fmt.Errorf("policy: records not strictly sorted at index %d", i)
		}
		prev = fp
		t.bucket[(fp>>(64-bucketBits))+1] = uint32(i + 1)
	}
	for b := 1; b < len(t.bucket); b++ {
		if t.bucket[b] < t.bucket[b-1] {
			t.bucket[b] = t.bucket[b-1]
		}
	}
	return t, nil
}

// Close releases the mapping. Lookups must not race with Close.
func (t *Table) Close() error {
	if t.unmap == nil {
		return nil
	}
	u := t.unmap
	t.unmap = nil
	t.recs = nil
	t.n = 0
	return u()
}

// Header returns the table's identity and provenance.
func (t *Table) Header() Header { return t.h }

// Len reports the record count.
func (t *Table) Len() int { return t.n }

// Record returns record i (0 ≤ i < Len), in fingerprint order.
func (t *Table) Record(i int) Record { return parseRecord(t.recs[i*recordSize:]) }

func (t *Table) fpAt(i int) uint64 {
	return binary.LittleEndian.Uint64(t.recs[i*recordSize:])
}

// Lookup returns the record under the primary fingerprint whose
// secondary verification hash also matches. A fingerprint present with
// the wrong verification hash is a detected collision and reported as
// a miss — the caller falls back to live planning. Zero allocation.
func (t *Table) Lookup(fp, verify uint64) (Record, bool) {
	b := fp >> (64 - bucketBits)
	lo, hi := int(t.bucket[b]), int(t.bucket[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v := t.fpAt(mid)
		switch {
		case v < fp:
			lo = mid + 1
		case v > fp:
			hi = mid
		default:
			r := parseRecord(t.recs[mid*recordSize:])
			if r.Verify != verify {
				return Record{}, false
			}
			return r, true
		}
	}
	return Record{}, false
}

// Verify round-trips every record through Lookup, proving the serve
// path bit-identical to the recorded actions (sortedness and the
// prefix index included). It is what `policyc verify` and the CI smoke
// run after a compile.
func (t *Table) Verify() error {
	for i := 0; i < t.n; i++ {
		r := t.Record(i)
		got, ok := t.Lookup(r.FP, r.Verify)
		if !ok {
			return fmt.Errorf("policy: record %d (fp %016x) not found by Lookup", i, r.FP)
		}
		if got != r {
			return fmt.Errorf("policy: record %d round-trip mismatch: stored %+v, served %+v", i, r, got)
		}
		if _, ok := t.Lookup(r.FP, r.Verify^1); ok {
			return fmt.Errorf("policy: record %d served despite verify-hash mismatch", i)
		}
	}
	return nil
}
