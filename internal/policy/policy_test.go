package policy

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/model"
)

// synthRecords builds n deterministic pseudo-random records (SplitMix64
// over i, no time/os dependence).
func synthRecords(n int) []Record {
	recs := make([]Record, n)
	next := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range recs {
		fp := next(uint64(i) + 1)
		recs[i] = Record{
			FP:      fp,
			Verify:  next(fp),
			SendNow: i%3 == 0,
			Delta:   time.Duration(i) * 10 * time.Millisecond,
			Gain:    float64(i) * 1.25,
		}
	}
	return recs
}

func testHeader() Header {
	return Header{
		FleetN:        8,
		TimeQuantum:   50 * time.Millisecond,
		WeightQuantum: 1e-3,
		PriorHash:     0xDEADBEEF,
		BuildSeed:     7,
		Created:       1700000000,
		Note:          "unit test",
	}
}

func TestTableWriteOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.pol")
	recs := synthRecords(5000)
	if err := WriteTable(path, testHeader(), recs); err != nil {
		t.Fatal(err)
	}
	tb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	h := tb.Header()
	want := testHeader()
	if h.FleetN != want.FleetN || h.TimeQuantum != want.TimeQuantum ||
		h.WeightQuantum != want.WeightQuantum || h.PriorHash != want.PriorHash ||
		h.BuildSeed != want.BuildSeed || h.Created != want.Created || h.Note != want.Note {
		t.Fatalf("header round-trip: got %+v want %+v", h, want)
	}
	if tb.Len() != len(recs) {
		t.Fatalf("len = %d, want %d", tb.Len(), len(recs))
	}
	// Every record served bit-identical, verify-mismatch refused.
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}
	// Absent fingerprints miss.
	if _, ok := tb.Lookup(0x1234, 0); ok {
		t.Error("absent fingerprint served")
	}
	// Spot-check payloads via the original (unsorted) records.
	for _, r := range recs[:100] {
		got, ok := tb.Lookup(r.FP, r.Verify)
		if !ok || got != r {
			t.Fatalf("lookup %016x: ok=%v got %+v want %+v", r.FP, ok, got, r)
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.pol")
	if err := WriteTable(path, testHeader(), synthRecords(64)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), data...)
	flip[headerSize+17] ^= 0xFF // corrupt a record byte
	bad := filepath.Join(dir, "bad.pol")
	os.WriteFile(bad, flip, 0o644)
	if _, err := Open(bad); err == nil {
		t.Error("corrupt record region accepted")
	}

	trunc := filepath.Join(dir, "trunc.pol")
	os.WriteFile(trunc, data[:len(data)-8], 0o644)
	if _, err := Open(trunc); err == nil {
		t.Error("truncated table accepted")
	}

	wrongMagic := append([]byte(nil), data...)
	wrongMagic[0] = 'X'
	wm := filepath.Join(dir, "wm.pol")
	os.WriteFile(wm, wrongMagic, 0o644)
	if _, err := Open(wm); err == nil {
		t.Error("wrong magic accepted")
	}
}

// craftedCount is a bare header whose record count, 2^62, wraps
// headerSize + count·recordSize back to the header's own length, with
// the empty record region's checksum.
func craftedCount() []byte {
	b := make([]byte, headerSize)
	h := testHeader()
	h.Version = Version
	h.Records = 1 << 62
	putHeader(b, magicTable, h)
	binary.LittleEndian.PutUint64(b[96:], checksumRegion(nil))
	return b
}

func TestOpenRejectsWrappingRecordCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crafted.pol")
	if err := os.WriteFile(path, craftedCount(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		open func() error
	}{
		{"openBytes", func() error { _, err := openBytes(craftedCount()); return err }},
		{"Open", func() error { _, err := Open(path); return err }},
	} {
		if err := c.open(); err == nil {
			t.Errorf("%s: a header promising 2^62 records in an empty region read", c.name)
		}
	}
}

// TestOpenRefusesBadWeightQuantum: a weight quantum that is not positive
// and finite buckets no weight sensibly (0 and NaN give Inf or NaN
// quotients, +Inf puts every weight in one bucket), so Open refuses a
// table that records one.
func TestOpenRefusesBadWeightQuantum(t *testing.T) {
	dir := t.TempDir()
	for _, wq := range []float64{0, -1e-3, math.NaN(), math.Inf(1)} {
		h := testHeader()
		h.WeightQuantum = wq
		table := filepath.Join(dir, "t.pol")
		if err := WriteTable(table, h, synthRecords(4)); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(table); err == nil {
			t.Errorf("weight quantum %g: Open accepted the table", wq)
		}
	}
}

// FuzzOpenBytes: openBytes returns an error or a table whose every
// record is served back by Lookup under its own fingerprints, never a
// panic. Among the seeds is a miss-log sidecar of two records and a
// crashed writer's partial third, the second file kind earlier builds
// wrote under the table's header layout: no table, so refused.
func FuzzOpenBytes(f *testing.F) {
	path := filepath.Join(f.TempDir(), "t.pol")
	if err := WriteTable(path, testHeader(), synthRecords(9)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	sh := testHeader()
	sh.Version = Version
	sidecar := make([]byte, headerSize+2*recordSize+7)
	putHeader(sidecar, [8]byte{'M', 'C', 'P', 'O', 'L', 'S', 'C', '1'}, sh)
	for i, r := range synthRecords(2) {
		putRecord(sidecar[headerSize+i*recordSize:], r)
	}
	if _, err := openBytes(sidecar); err == nil {
		f.Fatal("openBytes accepted a sidecar miss log")
	}
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add(craftedCount())
	f.Add(sidecar)
	same := func(a, b Record) bool {
		return a.FP == b.FP && a.Verify == b.Verify && a.Delta == b.Delta &&
			a.SendNow == b.SendNow && math.Float64bits(a.Gain) == math.Float64bits(b.Gain)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := openBytes(data)
		if err != nil {
			return
		}
		for i := 0; i < tb.Len(); i++ {
			r := tb.Record(i)
			got, ok := tb.Lookup(r.FP, r.Verify)
			if !ok || !same(got, r) {
				t.Fatalf("record %d = %+v, Lookup gave %+v (ok %v)", i, r, got, ok)
			}
		}
	})
}

func TestWriteTableRejectsConflictingDuplicates(t *testing.T) {
	dir := t.TempDir()
	recs := synthRecords(4)
	// Same fingerprint, different payload: ambiguous, must be refused.
	recs = append(recs, Record{FP: recs[0].FP, Verify: recs[0].Verify + 1})
	if err := WriteTable(filepath.Join(dir, "dup.pol"), testHeader(), recs); err == nil {
		t.Fatal("conflicting duplicate fingerprints accepted")
	}
	// Exact duplicates collapse silently.
	recs2 := synthRecords(4)
	recs2 = append(recs2, recs2[0])
	path := filepath.Join(dir, "dup2.pol")
	if err := WriteTable(path, testHeader(), recs2); err != nil {
		t.Fatal(err)
	}
	tb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.Len() != 4 {
		t.Fatalf("len = %d after collapsing exact duplicate, want 4", tb.Len())
	}
}

func TestHashPriorDiscriminates(t *testing.T) {
	prA := fleet.Config{N: 8}.ResolvedPrior()
	prB := fleet.Config{N: 16}.ResolvedPrior()
	tq, wq := 50*time.Millisecond, 1e-3
	if HashPrior(prA, tq, wq) == HashPrior(prB, tq, wq) {
		t.Error("different fleet priors share a hash")
	}
	if HashPrior(prA, tq, wq) == HashPrior(prA, tq, 1e-6) {
		t.Error("different weight quanta share a hash")
	}
	if HashPrior(prA, tq, wq) == HashPrior(prA, 0, wq) {
		t.Error("different time quanta share a hash")
	}

	h := Header{TimeQuantum: tq, WeightQuantum: wq, PriorHash: HashPrior(prA, tq, wq)}
	if err := h.CheckPrior(prA); err != nil {
		t.Errorf("matching prior rejected: %v", err)
	}
	if err := h.CheckPrior(prB); err == nil {
		t.Error("mismatched prior accepted")
	}
}

// compileWorkload is the small fleet workload the serving tests replay:
// big enough to exercise the coarse tier and the shared cache, small
// enough for CI.
func compileWorkload() CompileConfig {
	return CompileConfig{
		Fleet:    fleet.Config{N: 8, Workers: 1},
		Seeds:    []int64{5},
		Duration: 10 * time.Second,
		Note:     "test workload",
	}
}

// TestCompileServeReplay: compiling a fleet workload and re-serving the
// same workload from the table must (a) serve ≥ 90% of decisions from
// the table and (b) reproduce the warm-cache run bit-identically —
// per-flow deliveries and utilities equal — because every table hit
// returns exactly the action the compile recorded.
func TestCompileServeReplay(t *testing.T) {
	cc := compileWorkload()
	h, recs, stats, err := Compile(cc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unique == 0 || len(recs) != stats.Unique {
		t.Fatalf("compile stats %+v inconsistent with %d records", stats, len(recs))
	}
	if err := h.CheckPrior(cc.Fleet.ResolvedPrior()); err != nil {
		t.Fatalf("table incompatible with its own workload: %v", err)
	}

	path := filepath.Join(t.TempDir(), "t.pol")
	if err := WriteTable(path, h, recs); err != nil {
		t.Fatal(err)
	}
	tb, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Verify(); err != nil {
		t.Fatal(err)
	}

	// Reference: the compile workload itself (warm cache, live planning).
	ref := fleet.New(fleet.Config{N: 8, Workers: 1, Seed: 5})
	ref.Run(cc.Duration)

	// Served replay of the same workload.
	srv := NewServer(tb, nil)
	fl := fleet.New(fleet.Config{N: 8, Workers: 1, Seed: 5, Table: srv})
	fl.Run(cc.Duration)

	compiled, live := fl.CompiledStats()
	total := compiled + live
	if total == 0 {
		t.Fatal("no decisions made")
	}
	hitRate := float64(compiled) / float64(total)
	if hitRate < 0.9 {
		t.Errorf("compiled hit rate %.3f (%d/%d) < 0.9 on a replay of the compile workload", hitRate, compiled, total)
	}
	probes, hits, _ := srv.Stats()
	if probes == 0 || hits != compiled {
		t.Errorf("server stats probes=%d hits=%d, guard compiled=%d", probes, hits, compiled)
	}

	for i := range fl.Members {
		if got, want := fl.Members[i].Utility, ref.Members[i].Utility; got != want {
			t.Errorf("member %d utility %v != reference %v (served trajectory diverged)", i, got, want)
		}
		f := fl.Members[i].Flow
		if got, want := fl.Delivered(f), ref.Delivered(f); got != want {
			t.Errorf("member %d delivered %d != reference %d", i, got, want)
		}
	}
}

// TestVersion1FilesRefused: version 1 keyed its records by the byte-wise
// FNV fingerprint; this build keys by model.Mix. Open must fail on a v1
// table with the version error, never load it and serve 100 % misses.
func TestVersion1FilesRefused(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "cur.pol")
	if err := WriteTable(cur, testHeader(), synthRecords(16)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)
	old := cur + ".v1"
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(old); err == nil || !strings.Contains(err.Error(), "version 1, this build reads 2") {
		t.Errorf("Open(v1 table): want the version error, got %v", err)
	}
	tb, err := Open(cur)
	if err != nil {
		t.Fatalf("Open(current table): %v", err)
	}
	tb.Close()
}

var _ = model.Prior{} // keep the model import tied to CheckPrior usage above

// TestGoldenTable is format durability: testdata/v2.pol, written by
// `policyc compile -n 2 -dur 20s -seeds 1` at PR 18's tree, still opens
// as a version-2 table whose every record serves, bound to the N = 2 fleet
// prior's HashPrior.
func TestGoldenTable(t *testing.T) {
	tb, err := Open(filepath.Join("testdata", "v2.pol"))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if h := tb.Header(); h.FleetN != 2 || tb.Len() == 0 {
		t.Errorf("golden table: fleet n %d, %d records; want n 2 and a non-empty table", h.FleetN, tb.Len())
	}
	if err := tb.Verify(); err != nil {
		t.Error(err)
	}
	// The table's identity is still the one HashPrior gives the N = 2
	// fleet prior it was compiled under.
	if err := tb.Header().CheckPrior(fleet.Config{N: 2}.ResolvedPrior()); err != nil {
		t.Error(err)
	}
}
