// Package lifecycle is the fleet's member lifecycle and crash-recovery
// policy: versioned binary checkpoints of a member's full decision
// state, and one Controller that watches member health, restarts
// failures through a hot/warm/cold ladder with capped backoff, and
// draws deterministic churn schedules from seeded chaos streams. Two
// clocks drive it: the Supervisor at exact instants on the single loop,
// and shard.Fleet at coupling-window barriers.
//
// A checkpoint captures everything a member needs to resume making the
// same decisions an uninterrupted member would: the belief posterior,
// pending sends, the soft-matching ack memory, the sender's
// sequence/throughput counters, and the planner Guard's last safe
// pacing action. The header binds the checkpoint to its model identity
// via policy.HashPrior over the fleet's resolved prior and PolicyCache
// quanta — restoring against a different prior is a detected error,
// never a silently wrong belief — and the body is checksummed, so a
// corrupted or truncated file is a clean error, never a panic.
//
// The restart ladder, fastest first:
//
//	hot  — the fleet serves a compiled policy.Table: a fresh member
//	       answers rung-0 probes from the table immediately, before its
//	       belief has learned anything;
//	warm — the member's last checkpoint restores the belief it had
//	       already converged to;
//	cold — the prior alone, re-learning from scratch.
//
// Warm restores compose with the table (the restored member keeps the
// table as Guard rung 0), and every restarted member still degrades
// through planner.Guard's in-decision ladder (table → live → cache →
// last-safe → sleep); this package's ladder chooses where a member
// *starts*, the Guard's chooses how each *decision* is served.
package lifecycle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"modelcc/internal/belief"
	"modelcc/internal/core"
	"modelcc/internal/fleet"
	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/planner"
	"modelcc/internal/policy"
)

// Version is the checkpoint format version this package reads and
// writes.
const Version = 1

// magic identifies a member checkpoint file.
var magic = [8]byte{'M', 'C', 'L', 'C', 'K', 'P', 'T', '1'}

const (
	headerSize = 56

	// Decode caps: a corrupted length field must produce an error, not
	// an attempted multi-gigabyte allocation.
	maxHyps    = 1 << 21
	maxPending = 1 << 20
	maxRecent  = 1 << 20
	maxQueue   = 1 << 20
)

// Checkpoint is one member's full decision state at an instant.
type Checkpoint struct {
	// Flow and Gen identify the member generation that was captured.
	Flow packet.FlowID
	Gen  uint32
	// PriorHash binds the checkpoint to the model identity it was
	// captured under (policy.HashPrior over the resolved prior and the
	// fleet cache quanta); Restore against a different hash is refused.
	PriorHash uint64
	// At is the virtual capture time.
	At time.Duration
	// NextSeq, Sent, Acked, Wakes are the sender's counters.
	NextSeq, Sent, Acked, Wakes int64
	// LastSafeDelta/HaveSafe are the Guard's remembered safe pacing
	// action (rung 3 of the degradation ladder).
	LastSafeDelta time.Duration
	HaveSafe      bool
	// Utility and Injected carry the member's accounting, for
	// provenance (a restored member starts fresh fenced counters).
	Utility  float64
	Injected int64
	// Belief is the belief snapshot (posterior, pending sends, ack
	// memory, counters).
	Belief belief.Snapshot
}

// Capture snapshots a live member under the given prior hash. It does
// not mutate the member. Acknowledgments delivered in the current
// instant but not yet folded into the belief are not captured; the
// belief's soft matching absorbs the at-most-one-instant gap on
// restore.
func Capture(m *fleet.Member, priorHash uint64) (*Checkpoint, error) {
	c := &Checkpoint{
		Flow:      m.Flow,
		Gen:       m.Gen,
		PriorHash: priorHash,
		NextSeq:   m.Sender.NextSeq(),
		Sent:      m.Sender.Sent,
		Acked:     m.Sender.Acked,
		Wakes:     m.Sender.Wakes,
		Utility:   m.Utility,
		Injected:  m.Injected,
	}
	c.Belief = m.Sender.Belief.Snapshot()
	c.At = c.Belief.Now
	if g := m.Sender.Guard; g != nil {
		c.LastSafeDelta, c.HaveSafe = g.LastSafe()
	}
	return c, nil
}

// MemberHost is the restore surface a checkpointed sender is rebuilt
// against: the prior and the resolved member configs of the loop the
// runtime's roster will build the restored member on (a host holds no
// membership itself). Both the single-loop *fleet.Fleet and the sharded
// *fleet.Partition implement it, so one restore path serves warm
// restarts and failovers on either runtime. A checkpoint taken under one
// host restores bit-identically under any other with the same prior hash
// — the encoding carries no topology.
type MemberHost interface {
	PriorStates() []model.State
	MemberBeliefConfig() belief.Config
	MemberPlanConfig() planner.Config
}

// RestoreSender rebuilds a sender from the checkpoint against a host's
// resolved prior and configs. The caller supplies the host's prior
// hash; a mismatch — the checkpoint was captured under a different
// model or quanta — is a detected error. The sender is not yet wired
// into the host; attach it with the runtime's Attach (fleet.Roster.Attach
// on either runtime), then reinstate the Guard's safe action with
// RestoreGuard.
func RestoreSender(host MemberHost, c *Checkpoint, priorHash uint64) (*core.Sender, error) {
	if c.PriorHash != priorHash {
		return nil, fmt.Errorf("lifecycle: checkpoint bound to prior %016x, host resolves to %016x (model or quanta mismatch)", c.PriorHash, priorHash)
	}
	b, err := belief.Restore(host.PriorStates(), host.MemberBeliefConfig(), c.Belief)
	if err != nil {
		return nil, err
	}
	s := core.NewSender(b, host.MemberPlanConfig())
	s.SetNextSeq(c.NextSeq)
	s.Sent = c.Sent
	s.Acked = c.Acked
	s.Wakes = c.Wakes
	return s, nil
}

// RestoreGuard reinstates the checkpointed safe pacing action on an
// admitted member's Guard (no-op when the member has none or the
// checkpoint recorded none).
func RestoreGuard(m *fleet.Member, c *Checkpoint) {
	if g := m.Sender.Guard; g != nil && c.HaveSafe {
		g.RestoreLastSafe(c.LastSafeDelta)
	}
}

// FleetPriorHash computes the identity a fleet's member checkpoints are
// bound to: policy.HashPrior over the resolved prior and the shared
// PolicyCache's fingerprint quanta (zero quanta when the cache is
// disabled).
func FleetPriorHash(fl *fleet.Fleet) uint64 {
	return PriorHashFor(fl.Cfg, fl.Caches)
}

// PriorHashFor is FleetPriorHash over a resolved configuration and its
// shared cache stripes (nil when disabled): the sharded coordinator
// binds its barrier checkpoints to the exact identity the single-loop
// fleet would, so checkpoints move freely between the two runtimes.
func PriorHashFor(cfg fleet.Config, caches *planner.CacheStripes) uint64 {
	var (
		tq time.Duration
		wq float64
	)
	if caches != nil {
		tq, wq = caches.TimeQuantum(), caches.WeightQuantum()
	}
	return policy.HashPrior(cfg.ResolvedPrior(), tq, wq)
}

// ---- binary encoding ----
//
// Little-endian throughout, mirroring internal/policy's table format.
//
//	offset size  field
//	0      8     magic "MCLCKPT1"
//	8      4     version
//	12     4     flow
//	16     4     generation
//	20     4     belief kind (0 exact; 1, the removed particle filter, is refused)
//	24     8     prior hash
//	32     8     capture time (ns)
//	40     8     body length
//	48     8     FNV-1a checksum of bytes 0..48 plus the body
//	56     ...   body
//
// The format is defined by one walk: header, body, state and qpkt name
// every field exactly once, in wire order, against a cursor that writes
// the field when encoding and reads into it when decoding. Encode and
// Decode are that walk run in the two directions, so they cannot
// disagree about the layout.

// errTruncated is the canonical short-input decode error.
var errTruncated = errors.New("lifecycle: checkpoint truncated")

// cursor is one direction of the field walk. Encoding appends each
// field to b; decoding consumes it from the front of b. The first
// decode error sticks: later fields are left as they were and count
// returns 0, so a walk carries no error handling of its own.
type cursor struct {
	b   []byte
	enc bool
	err error
	// records maps each parameter block decoded so far to the first
	// hypothesis that carried it, whose record the rest share: one
	// record per distinct Params value, as the prior built them. It is
	// keyed by the wire bytes, not by Params, whose == takes -0 for 0
	// and never matches NaN, so every block re-encodes as it was read.
	records map[string]*model.State
}

// word walks one little-endian field of size bytes. Encoding writes v.
// Decoding returns the value read and true, or false once the input is
// short or an earlier field failed.
func (c *cursor) word(size int, v uint64) (uint64, bool) {
	var t [8]byte
	if c.enc {
		binary.LittleEndian.PutUint64(t[:], v)
		c.b = append(c.b, t[:size]...)
		return 0, false
	}
	if c.err != nil {
		return 0, false
	}
	if len(c.b) < size {
		c.err = errTruncated
		return 0, false
	}
	copy(t[:], c.b[:size])
	c.b = c.b[size:]
	return binary.LittleEndian.Uint64(t[:]), true
}

// num walks one integer field of size wire bytes (two's complement, so
// signed and unsigned fields share it).
func num[T ~int | ~int32 | ~int64 | ~uint32 | ~uint64](c *cursor, size int, v *T) {
	if w, ok := c.word(size, uint64(*v)); ok {
		*v = T(w)
	}
}

func (c *cursor) u32(v *uint32)        { num(c, 4, v) }
func (c *cursor) u64(v *uint64)        { num(c, 8, v) }
func (c *cursor) i64(v *int64)         { num(c, 8, v) }
func (c *cursor) int(v *int)           { num(c, 8, v) }
func (c *cursor) dur(v *time.Duration) { num(c, 8, v) }

func (c *cursor) f64(v *float64) {
	if w, ok := c.word(8, math.Float64bits(*v)); ok {
		*v = math.Float64frombits(w)
	}
}

// zero walks an 8-byte field that must be zero: encoding writes 0 and
// decoding refuses anything else, so decode∘encode stays canonical.
func (c *cursor) zero(what string) {
	if w, ok := c.word(8, 0); ok && w != 0 {
		c.err = fmt.Errorf("lifecycle: checkpoint has a nonzero %s, a field only the removed particle belief wrote", what)
	}
}

func (c *cursor) bool(v *bool) {
	var bit uint64
	if *v {
		bit = 1
	}
	if w, ok := c.word(1, bit); ok {
		if w > 1 {
			c.err = errors.New("lifecycle: checkpoint has invalid boolean")
			return
		}
		*v = w == 1
	}
}

// count walks a u32 length prefix: n is the length to write, the result
// the length to loop over (n when encoding; the decoded length, or 0
// after an error). A decoded length above max is refused before
// anything is allocated for it: a corrupted length field must produce
// an error, not an attempted multi-gigabyte allocation.
func (c *cursor) count(n, max int, what string) int {
	w, ok := c.word(4, uint64(n))
	if c.enc {
		return n
	}
	if ok && w > uint64(max) {
		c.err = fmt.Errorf("lifecycle: checkpoint claims %d %s (corrupt)", w, what)
	}
	if c.err != nil {
		return 0
	}
	return int(w)
}

// header walks bytes 8..48, everything between the magic and the
// checksum. The version, belief kind and body length are the caller's
// to produce (Encode) or to validate (Decode).
func (c *cursor) header(ck *Checkpoint, version, kind *uint32, bodyLen *uint64) {
	c.u32(version)
	num(c, 4, &ck.Flow)
	c.u32(&ck.Gen)
	c.u32(kind)
	c.u64(&ck.PriorHash)
	c.dur(&ck.At)
	c.u64(bodyLen)
}

// body walks everything after the header.
func (c *cursor) body(ck *Checkpoint) {
	c.i64(&ck.NextSeq)
	c.i64(&ck.Sent)
	c.i64(&ck.Acked)
	c.i64(&ck.Wakes)
	c.dur(&ck.LastSafeDelta)
	c.bool(&ck.HaveSafe)
	c.f64(&ck.Utility)
	c.i64(&ck.Injected)

	sn := &ck.Belief
	c.dur(&sn.Now)
	// The removed particle filter kept its RNG word and resample count
	// here; an exact belief writes both as zero.
	c.zero("RNG word")
	c.zero("resample count")
	c.int(&sn.Cum.Branches)
	c.int(&sn.Cum.Rejected)
	c.int(&sn.Cum.Merged)
	c.int(&sn.Cum.Floored)
	c.int(&sn.Cum.Relaxed)
	c.int(&sn.Cum.Reseeded)
	c.int(&sn.Cum.N)

	if n := c.count(len(sn.Pending), maxPending, "pending sends"); !c.enc && n > 0 {
		sn.Pending = make([]model.Send, n)
	}
	for i := range sn.Pending {
		s := &sn.Pending[i]
		c.i64(&s.Seq)
		c.dur(&s.At)
		c.i64(&s.Bits)
	}

	if n := c.count(len(sn.Recent), maxRecent, "recent acks"); !c.enc && n > 0 {
		sn.Recent = make([]belief.AckMemo, n)
	}
	for i := range sn.Recent {
		m := &sn.Recent[i]
		c.i64(&m.Seq)
		c.dur(&m.At)
	}

	if n := c.count(len(sn.Hyps), maxHyps, "hypotheses"); !c.enc && c.err == nil {
		if n == 0 {
			c.err = errors.New("lifecycle: checkpoint has no hypotheses")
		}
		sn.Hyps = make([]belief.Hypothesis, n)
	}
	for i := range sn.Hyps {
		c.f64(&sn.Hyps[i].W)
		c.state(&sn.Hyps[i].S)
	}
}

// state walks one model.State. The queue is written from the live
// window (states in snapshots are cloned, so QHead is 0, but Queued()
// keeps this correct regardless) and read into the zero State Decode
// starts from; QueueBits is derived, so decoding recomputes it rather
// than trusting the wire. The parameters are read into a Params value
// and become a record shared with every earlier hypothesis whose
// parameter block was the same bytes.
func (c *cursor) state(s *model.State) {
	num(c, 4, &s.ParamsID)
	var p model.Params
	if c.enc {
		p = s.P.Params
	}
	wire := c.b
	c.params(&p)
	if !c.enc && c.err == nil {
		key := wire[:len(wire)-len(c.b)]
		if first, ok := c.records[string(key)]; ok {
			s.P = first.P
		} else {
			s.SetParams(p)
			if c.records == nil {
				c.records = map[string]*model.State{}
			}
			c.records[string(key)] = s
		}
	}

	c.dur(&s.Now)
	c.bool(&s.PingerOn)
	c.dur(&s.NextCross)
	c.dur(&s.NextToggle)
	c.dur(&s.SwitchTick)
	c.bool(&s.Serving)
	c.qpkt(&s.InService)
	c.dur(&s.ServiceDone)

	q := s.Queued()
	if n := c.count(len(q), maxQueue, "queued packets"); !c.enc && n > 0 {
		q = make([]model.QPkt, n)
		s.Queue = q
	}
	for i := range q {
		c.qpkt(&q[i])
		if !c.enc {
			s.QueueBits += q[i].Bits
		}
	}
}

func (c *cursor) params(p *model.Params) {
	c.f64((*float64)(&p.LinkRate))
	c.f64((*float64)(&p.CrossRate))
	c.dur(&p.MeanSwitch)
	c.f64(&p.LossProb)
	c.i64(&p.BufferCapBits)
	c.i64(&p.InitFullBits)
	c.f64(&p.ClockSkew)
	c.int(&p.PktBytes)
	c.i64(&p.CrossPktBits)
}

func (c *cursor) qpkt(p *model.QPkt) {
	c.bool(&p.Own)
	c.i64(&p.Seq)
	c.i64(&p.Bits)
	c.dur(&p.EnqueuedAt)
}

// checksum hashes the header prefix (everything before the checksum
// field itself) and the body region (FNV-1a, like the policy table's
// record checksum), so a flipped bit anywhere in the file is caught.
func checksum(header, body []byte) uint64 {
	h := fnv.New64a()
	h.Write(header)
	h.Write(body)
	return h.Sum64()
}

// Encode serializes the checkpoint. Encoding is canonical: two
// checkpoints of the same state produce identical bytes. The walk only
// reads c.
func (c *Checkpoint) Encode() []byte {
	body := cursor{enc: true}
	body.body(c)

	version, kind, bodyLen := uint32(Version), uint32(0), uint64(len(body.b))
	out := cursor{enc: true, b: make([]byte, 0, headerSize+len(body.b))}
	out.b = append(out.b, magic[:]...)
	out.header(c, &version, &kind, &bodyLen)
	sum := checksum(out.b, body.b)
	out.u64(&sum)
	return append(out.b, body.b...)
}

// Decode parses a checkpoint. Corrupted, truncated, or internally
// inconsistent input yields an error — never a panic, never a silently
// wrong belief (the caller still must check the prior hash against its
// own model via RestoreSender).
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) < headerSize {
		return nil, errTruncated
	}
	if [8]byte(b[:8]) != magic {
		return nil, errors.New("lifecycle: not a member checkpoint (bad magic)")
	}
	var (
		c             = &Checkpoint{}
		version, kind uint32
		bodyLen, sum  uint64
	)
	hdr := cursor{b: b[8:headerSize]}
	hdr.header(c, &version, &kind, &bodyLen)
	hdr.u64(&sum)
	if version != Version {
		return nil, fmt.Errorf("lifecycle: checkpoint version %d, this build reads %d", version, Version)
	}
	switch kind {
	case 0:
	case 1:
		return nil, errors.New("lifecycle: checkpoint holds a particle belief (kind 1), which this build no longer has; only exact beliefs (kind 0) restore")
	default:
		return nil, fmt.Errorf("lifecycle: unknown belief kind %d", kind)
	}
	if bodyLen != uint64(len(b)-headerSize) {
		return nil, errors.New("lifecycle: checkpoint body length mismatch (truncated or padded)")
	}
	if checksum(b[:48], b[headerSize:]) != sum {
		return nil, errors.New("lifecycle: checkpoint checksum mismatch (corrupted)")
	}
	body := cursor{b: b[headerSize:]}
	body.body(c)
	if body.err != nil {
		return nil, body.err
	}
	if len(body.b) != 0 {
		return nil, errors.New("lifecycle: checkpoint has trailing bytes")
	}
	return c, nil
}

// WriteFile writes the checkpoint atomically (tmp + rename, like
// policy.WriteTable) so a crash mid-write never leaves a torn file a
// later restore could trip on.
func (c *Checkpoint) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(c.Encode()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads and decodes a checkpoint file.
func ReadFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
