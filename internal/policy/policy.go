// Package policy is an offline-compiled, persistent control map — §3.3
// taken literally: "for a particular model and distribution of possible
// states, there will be a policy that can be computed in advance".
//
// The package has three halves:
//
//   - A compiler (Compile) that sweeps the reachable belief space by
//     replaying fleet runs (internal/fleet is a ready-made generator of
//     realistic belief trajectories) with no shared policy cache, so
//     every decision is the live planner's own, and records, through
//     each sender's decision observer (core.Sender.OnDecide), every
//     belief fingerprint → {action, delta, gain, verify-hash} pair the
//     runs decide, quantized under the fleet's named quanta
//     (fleet.TimeQuantum, fleet.WeightQuantum).
//
//   - A versioned flat table (WriteTable / Open): a
//     fixed-width header carrying the model identity (a hash of the
//     resolved prior), the fingerprint quantum settings, and build
//     provenance, followed by fixed-width records sorted by
//     fingerprint. Lookup is a bucket-narrowed binary search —
//     O(log n) worst case, O(1) in expectation — with zero allocation,
//     so a multi-million-entry table serves decisions at memory speed.
//
//   - A serving side (Server, implementing planner.CompiledPolicy and
//     its wake-keyed form planner.WakePolicy) that loads the table
//     read-only and answers Guard rung-0 probes. A miss is planned live
//     and not recorded: a table changes only by compiling it again.
//
// Safety rules, enforced rather than assumed:
//
//   - Every record carries a secondary verification hash computed over
//     the same bytes as the primary fingerprint by an independent
//     hash; a lookup is served only when both match, so a 64-bit
//     fingerprint collision degrades to a miss (live planning), never
//     a wrong action.
//   - The header's PriorHash binds a table to the resolved model prior
//     and quantum settings it was compiled under; Header.CheckPrior
//     refuses to serve a table against a model it was not compiled
//     for.
//   - The whole record region is checksummed; Open refuses a corrupt
//     or truncated file.
package policy

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/planner"
)

// Version is the table format version this package reads and writes.
// The fingerprint is the key language of tables, so a change of hash is
// a change of format: 2 is planner.Fingerprint over model.Mix; version 1
// files (byte-wise FNV keys) are refused, not served as all misses.
const Version = 2

// magicTable opens every table file.
var magicTable = [8]byte{'M', 'C', 'P', 'O', 'L', 'T', 'B', '1'}

const (
	headerSize = 104
	recordSize = 40
	noteSize   = 32

	flagSendNow = 1 << 0
)

// Header identifies and versions a compiled table: which model and
// quanta the fingerprints were computed under, and where the table came
// from.
type Header struct {
	// Version is the format version (see Version).
	Version uint32
	// FleetN is the fleet size of the compile workload (provenance).
	FleetN uint32
	// Records is the record count.
	Records uint64
	// TimeQuantum and WeightQuantum are the fingerprint quanta every
	// record's key was computed with; probes must use the same.
	TimeQuantum   time.Duration
	WeightQuantum float64
	// PriorHash binds the table to the resolved model prior (and the
	// quanta) it was compiled under; see HashPrior.
	PriorHash uint64
	// BuildSeed is the first replay seed of the compile (provenance).
	BuildSeed int64
	// Created is the build time in Unix seconds (provenance; informational
	// only — compatibility is decided by Version and PriorHash).
	Created int64
	// Note is a free-form provenance string (truncated to 31 bytes).
	Note string
}

// CheckPrior reports whether a belief fingerprinted under the given
// resolved prior and this header's quanta may be served from this
// table.
func (h Header) CheckPrior(pr model.Prior) error {
	if got := HashPrior(pr, h.TimeQuantum, h.WeightQuantum); got != h.PriorHash {
		return fmt.Errorf("policy: table compiled for prior %016x, serving prior is %016x (model or quanta mismatch)", h.PriorHash, got)
	}
	return nil
}

// Record is one compiled fingerprint → action pair, in the planner's
// Entry form: a decision as Compile observed it.
type Record = planner.Entry

// HashPrior hashes a resolved model prior together with the
// fingerprint quanta: the identity a compiled table records so it is
// never served against a model it was not compiled for. Any field that
// changes the enumerated hypothesis set (or the fingerprint key
// language) must be folded in here.
func HashPrior(pr model.Prior, tq time.Duration, wq float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	putR := func(r model.PriorRange) {
		putF(r.Lo)
		putF(r.Hi)
		put(uint64(int64(r.N)))
	}
	putR(pr.LinkRate)
	putR(pr.CrossFrac)
	putR(pr.LossProb)
	putR(pr.BufferCapBits)
	putR(model.PriorRange{}) // the removed clock-skew range, kept so file identities hold
	put(uint64(int64(pr.FullnessSteps)))
	put(uint64(int64(pr.MeanSwitch)))
	if pr.PingerMaybeOff {
		put(1)
	} else {
		put(0)
	}
	put(uint64(pr.CrossPktBits))
	put(uint64(int64(pr.SwitchTick)))
	put(uint64(int64(tq)))
	putF(wq)
	return h.Sum64()
}

// sortRecords orders records by fingerprint (then verify, for a stable
// order under forced-collision tests).
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].FP != recs[j].FP {
			return recs[i].FP < recs[j].FP
		}
		return recs[i].Verify < recs[j].Verify
	})
}
