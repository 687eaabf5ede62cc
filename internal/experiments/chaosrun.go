package experiments

import (
	"sort"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/lifecycle"
	"modelcc/internal/model"
	"modelcc/internal/packet"
)

// ChaosConfig is one ISENDER run with a deterministic fault schedule
// layered between the sender and the ground truth. Every fault lands at
// an exact virtual instant, so the whole run (faults included) replays
// bit-identically from the seed.
type ChaosConfig struct {
	// Base is the underlying experiment; its BeliefCfg should set
	// Recover (a chaotic path produces observations no hypothesis
	// explains, and the default config deliberately panics on those).
	Base ISenderConfig
	// Faults is the fault schedule. Data packets draw from the config's
	// seed, acknowledgments from Sub("ack"), and both share the absolute
	// blackout windows.
	Faults chaos.Config
}

// TimedUtil is one acknowledged delivery's realized utility, timestamped
// so harnesses can window it (e.g. post-blackout recovery ratios).
type TimedUtil struct {
	At   time.Duration
	Util float64
}

// ChaosResult extends ISenderResult with the fault tallies and a replay
// hash over every externally visible event.
type ChaosResult struct {
	ISenderResult
	// Hash is FNV-1a over the run's send and acknowledgment streams; two
	// runs of the same ChaosConfig must produce equal hashes (the
	// determinism acceptance check).
	Hash uint64
	// Reseeded counts belief collapse recoveries over the run.
	Reseeded int
	// Deliveries are the per-ack realized utilities in arrival order.
	Deliveries []TimedUtil
	// DataStats/AckStats are the injectors' tallies per direction.
	DataStats, AckStats chaos.Stats
}

// delayedAck is an acknowledgment in flight past its natural arrival
// (chaos reordering): it surfaces at at, stamped with its original
// receive time.
type delayedAck struct {
	at  time.Duration
	ack packet.Ack
}

// faultTap is what RunChaos puts between sender and truth in runSolo:
// the two injectors, the delayed acknowledgments still in flight, the
// replay hash and the per-delivery utilities. RunISender runs the same
// loop with no tap.
type faultTap struct {
	dataInj, ackInj *chaos.Injector
	inFlight        []delayedAck // sorted by at
	hash            *lifecycle.Hasher
	deliveries      []TimedUtil
}

// sends returns the sender's new injections that survive the data-path
// injector, hashed.
func (t *faultTap) sends(sends []model.Send) []model.Send {
	var out []model.Send
	for _, snd := range sends {
		if t.dataInj != nil {
			// A corrupted packet fails the receiver's check on
			// arrival, so Corrupt degenerates to Drop.
			if v := t.dataInj.Next(snd.At); v.Drop || v.Corrupt {
				continue
			}
		}
		t.hash.Put(1, uint64(snd.Seq), uint64(snd.At))
		out = append(out, snd)
	}
	return out
}

// acks runs one step's fresh acknowledgments through the ack-path
// injector — survivors are seen now or join the in-flight list — then
// appends the reordered ones due by now, original stamps intact, and
// hashes everything the sender is about to see.
func (t *faultTap) acks(now time.Duration, fresh []packet.Ack) []packet.Ack {
	var out []packet.Ack
	for _, a := range fresh {
		var v chaos.Verdict
		if t.ackInj != nil {
			v = t.ackInj.Next(a.ReceivedAt)
		}
		if v.Drop || v.Corrupt {
			continue
		}
		n := 1
		if v.Duplicate {
			n = 2
		}
		for ; n > 0; n-- {
			if v.Delay > 0 {
				t.inFlight = append(t.inFlight, delayedAck{at: a.ReceivedAt + v.Delay, ack: a})
			} else {
				out = append(out, a)
			}
		}
	}
	sort.SliceStable(t.inFlight, func(i, j int) bool { return t.inFlight[i].at < t.inFlight[j].at })
	for len(t.inFlight) > 0 && t.inFlight[0].at <= now {
		out = append(out, t.inFlight[0].ack)
		t.inFlight = t.inFlight[1:]
	}
	for _, a := range out {
		t.hash.Put(2, uint64(a.Seq), uint64(a.ReceivedAt))
	}
	return out
}

// RunChaos executes one ISENDER run with fault injection between sender
// and truth: RunISender's loop, runSolo, with a faultTap. Data-path
// faults are drops only (blackouts, bursts, i.i.d. loss and corruption);
// the ack path additionally duplicates and delays, and a delayed ack
// keeps its original receive stamp — exactly the stale-observation
// shape that triggers likelihood collapse and exercises Recover.
func RunChaos(cfg ChaosConfig) ChaosResult {
	tap := &faultTap{hash: lifecycle.NewHasher()}
	if cfg.Faults.Enabled() {
		tap.dataInj = chaos.New(cfg.Faults)
		tap.ackInj = chaos.New(cfg.Faults.Sub("ack"))
	}
	res := ChaosResult{ISenderResult: runSolo(cfg.Base, tap)}
	res.Hash = tap.hash.Sum()
	res.Reseeded = res.UpdateCum.Reseeded
	res.Deliveries = tap.deliveries
	if tap.dataInj != nil {
		res.DataStats = tap.dataInj.Stats
	}
	if tap.ackInj != nil {
		res.AckStats = tap.ackInj.Stats
	}
	return res
}

// UtilityIn sums the realized utility of deliveries in [from, to).
func (r *ChaosResult) UtilityIn(from, to time.Duration) float64 {
	var u float64
	for _, d := range r.Deliveries {
		if d.At >= from && d.At < to {
			u += d.Util
		}
	}
	return u
}
