package lifecycle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// testFleet builds a small fleet used only as a source of resolved
// member-construction inputs (prior states, belief/planner configs).
func testFleet(t testing.TB, workers int) *fleet.Fleet {
	t.Helper()
	return fleet.New(fleet.Config{N: 2, Seed: 7, Workers: workers})
}

// scriptedTrace drives a sender against a deterministic scripted
// network (every send acknowledged after a fixed delay) for the given
// number of wakes and returns the decision trace. When ckptAt >= 0 the
// sender is checkpointed through the full binary round-trip and
// replaced by its restore at that wake — an uninterrupted run and an
// interrupted one must produce identical traces.
func scriptedTrace(t *testing.T, fl *fleet.Fleet, s *core.Sender, wakes, ckptAt int) []string {
	t.Helper()
	hash := FleetPriorHash(fl)
	const delay = 150 * time.Millisecond
	var (
		trace   []string
		pending []packet.Ack
		now     time.Duration
	)
	for k := 0; k < wakes; k++ {
		if k == ckptAt {
			s = roundTrip(t, fl, s, hash)
		}
		var acks []packet.Ack
		for len(pending) > 0 && pending[0].ReceivedAt <= now {
			acks = append(acks, pending[0])
			pending = pending[1:]
		}
		act := s.Wake(now, acks)
		line := fmt.Sprintf("%d@%v:", k, act.WakeAt)
		for _, snd := range act.Sends {
			line += fmt.Sprintf(" %d", snd.Seq)
			pending = append(pending, packet.Ack{Seq: snd.Seq, SentAt: now, ReceivedAt: now + delay})
		}
		trace = append(trace, line)
		next := act.WakeAt
		if len(pending) > 0 && pending[0].ReceivedAt < next {
			next = pending[0].ReceivedAt
		}
		if next <= now {
			next = now + 10*time.Millisecond
		}
		now = next
	}
	return trace
}

// roundTrip checkpoints the sender, pushes it through Encode/Decode,
// asserts the binary form is canonical (encode∘decode∘encode is
// identity), and returns the restored sender.
func roundTrip(t *testing.T, fl *fleet.Fleet, s *core.Sender, hash uint64) *core.Sender {
	t.Helper()
	m := &fleet.Member{Flow: 0, Gen: 0, Sender: s}
	c, err := Capture(m, hash)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	raw := c.Encode()
	c2, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if again := c2.Encode(); !bytes.Equal(raw, again) {
		t.Fatalf("encode/decode/encode not bit-identical: %d vs %d bytes", len(raw), len(again))
	}
	s2, err := RestoreSender(fl, c2, hash)
	if err != nil {
		t.Fatalf("RestoreSender: %v", err)
	}
	if s2.NextSeq() != s.NextSeq() || s2.Sent != s.Sent || s2.Acked != s.Acked || s2.Wakes != s.Wakes {
		t.Fatalf("restored counters differ: next=%d/%d sent=%d/%d acked=%d/%d wakes=%d/%d",
			s2.NextSeq(), s.NextSeq(), s2.Sent, s.Sent, s2.Acked, s.Acked, s2.Wakes, s.Wakes)
	}
	return s2
}

// TestResumeMatchesUninterruptedExact is the acceptance property: a
// member restored from Checkpoint(m) makes exactly the decisions the
// uninterrupted member would have made, for the Exact belief.
func TestResumeMatchesUninterruptedExact(t *testing.T) {
	fl := testFleet(t, 1)
	mk := func() *core.Sender {
		return core.NewSender(belief.NewExact(fl.PriorStates(), fl.MemberBeliefConfig()), fl.MemberPlanConfig())
	}
	const wakes = 60
	straight := scriptedTrace(t, fl, mk(), wakes, -1)
	for _, at := range []int{1, 10, 30, 59} {
		resumed := scriptedTrace(t, fl, mk(), wakes, at)
		for i := range straight {
			if straight[i] != resumed[i] {
				t.Fatalf("ckpt at wake %d: decision %d diverged:\n straight: %s\n resumed:  %s",
					at, i, straight[i], resumed[i])
			}
		}
	}
}

// TestResumeWorkerInvariance re-runs the Exact resume check with a
// parallel rollout pool: the worker count must change neither the
// straight trace nor the resumed one.
func TestResumeWorkerInvariance(t *testing.T) {
	serial := testFleet(t, 1)
	parallel := testFleet(t, 0)
	mk := func(fl *fleet.Fleet) *core.Sender {
		return core.NewSender(belief.NewExact(fl.PriorStates(), fl.MemberBeliefConfig()), fl.MemberPlanConfig())
	}
	const wakes = 40
	a := scriptedTrace(t, serial, mk(serial), wakes, 15)
	b := scriptedTrace(t, parallel, mk(parallel), wakes, 15)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across worker counts:\n serial:   %s\n parallel: %s", i, a[i], b[i])
		}
	}
}

// liveCheckpoint captures member 0 of a short real fleet run, giving
// the error-path tests a realistic checkpoint.
func liveCheckpoint(t testing.TB) (*fleet.Fleet, *Checkpoint) {
	t.Helper()
	fl := fleet.New(fleet.Config{N: 2, Seed: 11, Workers: 1})
	fl.Run(10 * time.Second)
	c, err := Capture(fl.Members[0], FleetPriorHash(fl))
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	return fl, c
}

func TestRestoreRejectsWrongPrior(t *testing.T) {
	fl, c := liveCheckpoint(t)
	if _, err := RestoreSender(fl, c, FleetPriorHash(fl)+1); err == nil {
		t.Fatal("restore against a different prior hash succeeded; want detected error")
	} else if !strings.Contains(err.Error(), "prior") {
		t.Fatalf("wrong-prior error should name the prior mismatch, got: %v", err)
	}
}

// TestDecodeRejectsDamage proves every corruption mode is a clean
// error: truncations at every prefix length, single-bit flips at every
// byte, and garbage — never a panic, never a nil-error wrong result.
func TestDecodeRejectsDamage(t *testing.T) {
	_, c := liveCheckpoint(t)
	raw := c.Encode()

	if _, err := Decode(raw); err != nil {
		t.Fatalf("pristine checkpoint failed to decode: %v", err)
	}
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := Decode(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	for i := 0; i < len(raw); i += 11 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		c2, err := Decode(mut)
		if err != nil {
			continue
		}
		// A bit flip the checksum does not catch can only be a flip
		// inside the checksum/length header region that still describes
		// the same body — the decoded state must then match the
		// original exactly.
		if !bytes.Equal(c2.Encode(), raw) {
			t.Fatalf("bit flip at byte %d decoded to a different checkpoint without error", i)
		}
	}
	if _, err := Decode([]byte("not a checkpoint at all")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	if _, err := Decode(append([]byte(nil), make([]byte, 56)...)); err == nil {
		t.Fatal("zero header decoded without error")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	fl, c := liveCheckpoint(t)
	path := filepath.Join(t.TempDir(), "m0.ckpt")
	if err := c.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	c2, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(c.Encode(), c2.Encode()) {
		t.Fatal("file round-trip not bit-identical")
	}
	if _, err := RestoreSender(fl, c2, FleetPriorHash(fl)); err != nil {
		t.Fatalf("restore from file: %v", err)
	}
	// A torn write must never be visible: the directory holds either
	// nothing or a complete file, thanks to the tmp+rename protocol.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

// The golden checkpoints are version-1 files written by the encoder as it
// stood before Encode and Decode became one walk: goldenExact is member
// 0 of fleet.Config{N: 8, Seed: 5, Workers: 1} after 10 s, and
// goldenRemoved a 64-particle sender over the N = 2 prior after 20
// scripted wakes. The particle filter has since been removed, so Decode
// refuses the second.
const goldenExact, goldenRemoved = "v1-exact.ckpt", "v1-particle.ckpt"

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenCheckpoints is format durability: the checked-in exact file
// decodes, re-encodes to the identical bytes, and is refused — never a
// panic — with any one byte flipped; the particle file is refused with
// an error that names its kind.
func TestGoldenCheckpoints(t *testing.T) {
	raw := readGolden(t, goldenExact)
	c, err := Decode(raw)
	if err != nil {
		t.Fatalf("%s: %v", goldenExact, err)
	}
	if len(c.Belief.Hyps) == 0 {
		t.Errorf("%s: decoded with no hypotheses", goldenExact)
	}
	if !bytes.Equal(c.Encode(), raw) {
		t.Errorf("%s: re-encode differs from the checked-in bytes", goldenExact)
	}
	mut := append([]byte(nil), raw...)
	for i := range mut {
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Errorf("%s: byte %d flipped decoded without error", goldenExact, i)
		}
		mut[i] = raw[i]
	}
	if _, err := Decode(readGolden(t, goldenRemoved)); err == nil || !strings.Contains(err.Error(), "particle") {
		t.Errorf("%s: Decode returned %v, want a refusal naming the particle kind", goldenRemoved, err)
	}
}

// TestDecodeRefusesRemovedKindFields: the header's belief kind and the two
// body words the particle filter wrote decode only as the exact
// belief's zeros. Each row edits one field of a live checkpoint and
// re-checksums it, so that field alone is what Decode refuses.
func TestDecodeRefusesRemovedKindFields(t *testing.T) {
	_, c := liveCheckpoint(t)
	raw := c.Encode()
	const rngAt = headerSize + 65 // after the sender's counters and the belief clock
	for _, row := range []struct {
		name string
		at   int
		want string
	}{
		{"kind 1", 20, "particle belief (kind 1)"},
		{"RNG word", rngAt, "nonzero RNG word"},
		{"resample count", rngAt + 8, "nonzero resample count"},
	} {
		mut := append([]byte(nil), raw...)
		if mut[row.at] != 0 {
			t.Fatalf("%s: byte %d is %d in a fresh encode, want 0", row.name, row.at, mut[row.at])
		}
		mut[row.at] = 1
		binary.LittleEndian.PutUint64(mut[48:headerSize], checksum(mut[:48], mut[headerSize:]))
		if _, err := Decode(mut); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: Decode returned %v, want an error containing %q", row.name, err, row.want)
		}
	}
}

// TestRestoreRefusesClockDisagreement: a snapshot whose clocks disagree
// — a pending send stamped before the belief's clock, or a hypothesis
// ahead of it — would panic inside a pool worker on its first Update,
// and one whose weights are not finite — an infinite weight, or finite
// ones whose sum overflows — would normalize to NaN there and collapse
// under the wrong name. belief.Restore refuses all four, called
// directly and through a re-encoded checkpoint's Decode and
// RestoreSender.
func TestRestoreRefusesClockDisagreement(t *testing.T) {
	fl, live := liveCheckpoint(t)
	hash := FleetPriorHash(fl)
	for _, row := range []struct {
		name string
		edit func(c *Checkpoint)
		want string
	}{
		{"pending send before now", func(c *Checkpoint) {
			sn := &c.Belief
			sn.Pending = append([]model.Send{{Seq: c.NextSeq, At: sn.Now - time.Millisecond}}, sn.Pending...)
		}, "precedes the belief's clock"},
		{"hypothesis ahead of now", func(c *Checkpoint) {
			sn := &c.Belief
			sn.Hyps[0].S.Now = sn.Now + time.Second
			sn.Pending = []model.Send{{Seq: c.NextSeq, At: sn.Now}}
		}, "ahead of the belief's clock"},
		{"infinite weight", func(c *Checkpoint) {
			c.Belief.Hyps[0].W = math.Inf(1)
		}, "infinite"},
		{"weights overflowing their sum", func(c *Checkpoint) {
			c.Belief.Hyps[0].W, c.Belief.Hyps[1].W = 1e308, 1e308
		}, "overflow"},
	} {
		c, err := Decode(live.Encode()) // a deep copy to edit
		if err != nil {
			t.Fatal(err)
		}
		row.edit(c)
		if _, err := belief.Restore(fl.PriorStates(), fl.MemberBeliefConfig(), c.Belief); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: belief.Restore returned %v, want an error containing %q", row.name, err, row.want)
		}
		c2, err := Decode(c.Encode())
		if err != nil {
			t.Fatalf("%s: Decode: %v", row.name, err)
		}
		if _, err := RestoreSender(fl, c2, hash); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: RestoreSender returned %v, want an error containing %q", row.name, err, row.want)
		}
	}
}

// TestCheckpointSharesRecords: Decode builds one parameter record per
// distinct parameter block, shared by every hypothesis that carries it,
// and the shared records re-encode to the bytes they were read from —
// for the exact golden file and for a live member's capture.
func TestCheckpointSharesRecords(t *testing.T) {
	fl := fleet.New(fleet.Config{N: 2, Seed: 11, Workers: 1})
	fl.Run(5 * time.Second)
	live, err := Capture(fl.Members[0], FleetPriorHash(fl))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"capture": live.Encode(), goldenExact: readGolden(t, goldenExact)}
	for name, raw := range files {
		c, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		records := map[model.Params]any{}
		for _, h := range c.Belief.Hyps {
			if r, ok := records[h.S.P.Params]; ok && r != any(h.S.P) {
				t.Fatalf("%s: one parameter value decoded into two records", name)
			}
			records[h.S.P.Params] = h.S.P
		}
		if len(records) == len(c.Belief.Hyps) && len(records) > 1 {
			t.Errorf("%s: every hypothesis has parameters of its own; the file exercises no sharing", name)
		}
		if !bytes.Equal(c.Encode(), raw) {
			t.Errorf("%s: re-encode differs from the bytes decoded", name)
		}
	}
}

// FuzzCheckpoint hardens Decode against arbitrary input: whatever the
// bytes, it must return a value or an error — never panic — and any
// successful decode must re-encode canonically (decode∘encode is the
// identity on the image of Encode).
func FuzzCheckpoint(f *testing.F) {
	fl := fleet.New(fleet.Config{N: 2, Seed: 11, Workers: 1})
	fl.Run(5 * time.Second)
	c, err := Capture(fl.Members[0], FleetPriorHash(fl))
	if err != nil {
		f.Fatal(err)
	}
	raw := c.Encode()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:56])
	f.Add([]byte{})
	f.Add([]byte("MCLCKPT1"))
	mut := append([]byte(nil), raw...)
	mut[60] ^= 0xff
	f.Add(mut)
	f.Add(readGolden(f, goldenExact))
	f.Add(readGolden(f, goldenRemoved))
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Decode(b)
		if err != nil {
			return
		}
		again := c.Encode()
		c2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encode of a decoded checkpoint failed to decode: %v", err)
		}
		if !bytes.Equal(c2.Encode(), again) {
			t.Fatal("decode/encode not canonical")
		}
	})
}
