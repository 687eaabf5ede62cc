// Package belief maintains the sender's probability distribution over
// possible network configurations (§3.2).
//
// Exact is the paper's approach: a weighted list of every surviving
// discrete configuration. Nondeterministic elements fork hypotheses;
// observations reject inconsistent ones ("the sequential application
// of Bayes' theorem"); identical states are compacted back together.
// The planner and the ISENDER read it through Belief, which also
// carries its lifetime counters (Lifetime) and its checkpoint
// (Snapshot, rebuilt by Restore).
//
// Exact stores each distinct dynamic state once, as a class
// (model.State.SameClass): hypotheses that differ only in their loss
// probability, initial fullness and grid point — the loss siblings of
// Figure 3's prior, and fullness siblings once their queues agree —
// advance alike, so an Update advances, hashes and stores each class
// once and weighs each member's branches with the member's own loss
// probability. The posterior is the per-hypothesis update's, bit for bit.
//
// Between updates Exact owns only what its classes hold: header pages,
// fixed arrays of class headers, and queue pages, fixed arrays of queue
// entries, both from stores on the pool, each class's queue a window
// onto a queue page that cannot be appended past (a queue longer than a
// page has an array of its own). An Update unpacks the classes into
// branch slots on the rollout.Pool, shared by every belief on it, where
// each slot owns a queue buffer and a fork clones into storage recycled
// from the classes earlier updates dropped or merged; at its end it
// packs the classes back onto the pages, and the slots keep their
// buffers for the next update of any belief on the pool. Support copies
// the headers into one view per pool. What it returns is therefore
// valid until the belief's next Update or the next Support of any belief
// on the same pool, and no longer, and it is read-only in a way that
// matters: the hypotheses of a class share its queue window, so a write
// through one hypothesis's queue changes its siblings. A caller that
// keeps a hypothesis across updates, or changes one, clones its state
// first, as planner.Guard's background Decide does.
package belief

import (
	"math"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/packet"
	"modelcc/internal/rollout"
)

// Hypothesis is one weighted network configuration.
type Hypothesis struct {
	// S is the configuration's state.
	S model.State
	// W is its posterior probability mass.
	W float64
}

// UpdateStats reports what one Bayesian update did, for instrumentation
// and the scalability benchmarks.
type UpdateStats struct {
	// Branches is the number of weighted branches generated before
	// rejection.
	Branches int
	// Rejected is the number of branches whose observations were
	// inconsistent (weight exactly zero).
	Rejected int
	// Merged is the number of branches absorbed by compaction.
	Merged int
	// Floored is the number of branches dropped by the weight floor or
	// the max-hypotheses cap.
	Floored int
	// Relaxed counts segments where every hypothesis was rejected and
	// Config.Relax kept the unconditioned posterior instead of
	// panicking.
	Relaxed int
	// Reseeded counts likelihood collapses Config.Recover repaired by
	// re-seeding the belief from its prior.
	Reseeded int
	// N is the number of hypotheses after the update.
	N int
	// Classes is the number of distinct states among them
	// (model.State.SameClass) after the update: what the update stores
	// and the next one advances.
	Classes int
}

// Belief is the sender's uncertainty about the network.
type Belief interface {
	// RecordSend tells the belief the sender injected a packet; the
	// send takes effect at the next Update whose time covers it.
	RecordSend(s model.Send)
	// Update advances every hypothesis to now and conditions on the
	// acknowledgments received since the previous update.
	Update(now time.Duration, acks []packet.Ack) UpdateStats
	// Support returns the current weighted hypotheses (compacted;
	// weights sum to 1). The slice and the states' queues are owned by
	// the belief, which rewrites them at every Update, and hypotheses with
	// equal states may share one queue: treat them as read-only — a write to
	// one hypothesis's queue may change another's — and Clone a state to
	// keep or change it. The slice is valid until the belief's next
	// Update; for an Exact it is one view per rollout.Pool, valid until
	// that Update or the next Support of any belief on the same pool,
	// so copy it before asking another belief on the pool for its own.
	Support() []Hypothesis
	// PendingSends returns sends recorded but not yet folded into the
	// hypotheses, oldest first. The planner replays them in rollouts so
	// back-to-back send decisions within one wakeup see each other.
	PendingSends() []model.Send
	// Now reports the time of the last update.
	Now() time.Duration
	// Lifetime reports every update's stats summed (N and Classes are
	// the last update's).
	Lifetime() UpdateStats
	// Snapshot captures the belief's full decision state; Restore
	// rebuilds it.
	Snapshot() Snapshot
}

// timeTol is the tolerance when matching a predicted delivery time
// against an observed acknowledgment time under hard rejection. The
// ground truth runs the same mechanics as the hypotheses, so it is tight.
const timeTol = time.Millisecond

// Config tunes the exact belief's resource bounds and observation
// matching.
type Config struct {
	// SoftSigma, when positive, replaces hard rejection of timing
	// mismatches with a Gaussian likelihood exp(-½(Δt/σ)²). The paper's
	// simulator observes its own mechanics exactly, so hard rejection
	// suffices there; against networks the model cannot represent
	// exactly — another ISENDER sharing the bottleneck (§3.5) — every
	// hypothesis would be rejected. Soft matching is the standard
	// likelihood-smoothing fix and degrades gracefully to the paper's
	// behaviour as σ → 0.
	SoftSigma time.Duration
	// MinWeight drops hypotheses below this post-normalization mass.
	MinWeight float64
	// MaxHyps caps the hypothesis count; the lowest-weight survivors are
	// dropped first. The paper notes exact rejection sampling is
	// "limited computationally" beyond a few million configurations —
	// the cap keeps worst cases bounded rather than aborting the run.
	MaxHyps int
	// Relax, when true, makes an all-hypotheses-rejected update keep
	// the prior-update posterior (counting it in UpdateStats.Relaxed)
	// instead of panicking. Used by the model-mismatch experiments; the
	// default panic is the right behaviour when the prior is supposed to
	// contain the truth.
	Relax bool
	// Recover, when true, detects likelihood collapse — an observation
	// impossible under every surviving hypothesis, as corruption, a
	// link blackout, or model divergence produce — and recovers
	// deterministically by re-seeding the belief from its initial
	// prior, rebased to the collapse instant with uniform weights
	// (counted in UpdateStats.Reseeded). Unlike Relax, which freezes a
	// posterior that just proved itself wrong, Recover restarts
	// inference from scratch: the right behaviour on a chaotic path
	// where the world really did change out from under the model.
	// Recover takes precedence over Relax.
	Recover bool
	// Workers is ignored: an update runs on the caller's goroutine.
	// v2a-1 deletes it.
	Workers int
	// Pool, when non-nil, supplies the update arena instead of the
	// belief constructing a private one. A fleet of senders
	// (internal/fleet) hands every member the same pool so their scratch
	// arenas amortize across the whole fleet. The pool must not be used
	// from multiple goroutines at once; the single-goroutine sim loop
	// guarantees that.
	Pool *rollout.Pool
}

// DefaultConfig returns the bounds used by the experiments.
func DefaultConfig() Config {
	return Config{
		MinWeight: 1e-9,
		MaxHyps:   1 << 18, // 262,144
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MinWeight <= 0 {
		c.MinWeight = d.MinWeight
	}
	if c.MaxHyps <= 0 {
		c.MaxHyps = d.MaxHyps
	}
	return c
}

// likelihood weights one branch's predicted events against the observed
// acknowledgments: an acknowledged prediction contributes 1-p (the packet
// survived last-mile LOSS), an unacknowledged past delivery contributes p
// (it was lost), and a timing mismatch rejects the branch outright.
// matched reports how many acknowledgments the branch explained; the
// caller rejects branches with matched < len(ackBySeq) — an
// acknowledgment the branch cannot explain is inconsistent. Each sequence
// number is delivered at most once per run, so counting suffices.
func likelihood(events []model.Event, ackBySeq map[int64]time.Duration, p float64) (w float64, matched int) {
	w = 1.0
	for _, ev := range events {
		switch ev.Kind {
		case model.OwnDelivered:
			at, ok := ackBySeq[ev.Seq]
			if !ok {
				// Predicted delivered, never acknowledged: lost at the
				// last mile.
				w *= p
				if w == 0 {
					return 0, matched
				}
				continue
			}
			diff := at - ev.At
			if diff < 0 {
				diff = -diff
			}
			if diff > timeTol {
				return 0, matched // right packet, wrong time
			}
			matched++
			w *= 1 - p
			if w == 0 {
				return 0, matched
			}
		case model.OwnBufferDrop:
			if _, ok := ackBySeq[ev.Seq]; ok {
				return 0, matched // predicted buffer-dropped, yet acknowledged
			}
		}
	}
	return w, matched
}

// softLikelihood is the soft-matching counterpart used against networks
// the model cannot represent exactly (a competing ISENDER on the same
// bottleneck). It differs from the exact rule in three ways, all of
// which degrade to the hard rule as σ → 0:
//
//   - timing mismatches are Gaussian-weighted, not rejected;
//   - acks are matched globally by sequence number (ackAll includes
//     recently seen acks), so a prediction and its acknowledgment that
//     straddle a segment or update boundary still pair up;
//   - a prediction with no ack is held "pending" (neutral weight)
//     within a grace window of now — the competitor's packets may have
//     delayed the ack past its predicted arrival — and afterwards
//     weighted by the loss probability floored at softMissFloor,
//     because the competitor's packets fill the buffer and drop ours
//     even when the hypothesis says p = 0.
func softLikelihood(events []model.Event, ackAll map[int64]time.Duration, now time.Duration, p float64, cfg Config) float64 {
	const softMissFloor = 0.01
	sigma := cfg.SoftSigma.Seconds()
	grace := 4 * cfg.SoftSigma
	w := 1.0
	for _, ev := range events {
		switch ev.Kind {
		case model.OwnDelivered:
			at, ok := ackAll[ev.Seq]
			if !ok {
				if now-ev.At <= grace {
					continue // pending: judge on a later update
				}
				miss := p
				if miss < softMissFloor {
					miss = softMissFloor
				}
				w *= miss
				continue
			}
			diff := (at - ev.At).Seconds()
			z := diff / sigma
			w *= math.Exp(-0.5*z*z) * (1 - p)
		case model.OwnBufferDrop:
			if _, ok := ackAll[ev.Seq]; ok {
				w *= 1e-12 // crushing, not fatal: occupancy may be slightly off
			}
		}
	}
	return w
}
