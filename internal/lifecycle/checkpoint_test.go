package lifecycle

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/fleet"
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

// TestResumeMatchesUninterruptedParticle is the same property for the
// Particle belief, whose RNG stream word must survive the round-trip
// for the sampled toggles to replay identically.
func TestResumeMatchesUninterruptedParticle(t *testing.T) {
	fl := testFleet(t, 1)
	mk := func() *core.Sender {
		b := belief.NewParticle(fl.PriorStates(), 64, fl.MemberBeliefConfig(), rand.New(rand.NewSource(3)))
		return core.NewSender(b, fl.MemberPlanConfig())
	}
	const wakes = 40
	straight := scriptedTrace(t, fl, mk(), wakes, -1)
	for _, at := range []int{5, 20} {
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

// goldenCheckpoints are version-1 files written by the encoder as it
// stood before Encode and Decode became one walk (PR 18's tree): member
// 0 of fleet.Config{N: 8, Seed: 5, Workers: 1} after 10 s, and a
// 64-particle sender over the N = 2 prior after 20 scripted wakes.
var goldenCheckpoints = []string{"v1-exact.ckpt", "v1-particle.ckpt"}

// TestGoldenCheckpoints is format durability: a checked-in version-1
// file decodes, re-encodes to the identical bytes, and is refused —
// never a panic — with any one byte flipped.
func TestGoldenCheckpoints(t *testing.T) {
	for _, name := range goldenCheckpoints {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wantParticle := name == "v1-particle.ckpt"; c.Belief.Particle != wantParticle || len(c.Belief.Hyps) == 0 {
			t.Errorf("%s: decoded particle=%v with %d hypotheses", name, c.Belief.Particle, len(c.Belief.Hyps))
		}
		if !bytes.Equal(c.Encode(), raw) {
			t.Errorf("%s: re-encode differs from the checked-in bytes", name)
		}
		mut := append([]byte(nil), raw...)
		for i := range mut {
			mut[i] ^= 0x40
			if _, err := Decode(mut); err == nil {
				t.Errorf("%s: byte %d flipped decoded without error", name, i)
			}
			mut[i] = raw[i]
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
	for _, name := range goldenCheckpoints {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
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
