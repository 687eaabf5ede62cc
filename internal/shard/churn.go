package shard

import (
	"sort"
	"time"

	"modelcc/internal/chaos"
	"modelcc/internal/core"
	"modelcc/internal/fleet"
	"modelcc/internal/lifecycle"
	"modelcc/internal/packet"
	"modelcc/internal/units"
)

// Barrier-aligned lifecycle: the sharded runtime's clock for the one
// lifecycle policy, lifecycle.Controller, which the single-loop
// Supervisor drives too. Every action — epoch draws, crash-kills, health
// sweeps, restarts — executes at coupling-window barriers, with due
// times snapped up to the Δ grid. Because Δ, the draw stream, the
// membership history and the barrier grid are all independent of the
// shard count, the lifecycle log and replay hash are bit-identical for
// every K. They are NOT identical to the Supervisor's, which kills and
// restarts mid-window at exact instants. Checkpoint availability is
// driven purely by virtual time, so the restart rung chosen is itself
// K-invariant.

// due is one queued coordinator action: a churn kill or restart of flow
// key, a fault kill of virtual shard key, or a stall of it lasting dur.
type due struct {
	at, dur time.Duration
	key     int
}

// dueQueue holds actions that run at the first barrier at or after their
// instant, in (at, key) order.
type dueQueue []due

// take removes the actions due by barrier b and returns them in (at, key)
// order.
func (q *dueQueue) take(b time.Duration) []due {
	s := *q
	sort.Slice(s, func(i, j int) bool {
		if s[i].at != s[j].at {
			return s[i].at < s[j].at
		}
		return s[i].key < s[j].key
	})
	n := 0
	for n < len(s) && s[n].at <= b {
		n++
	}
	*q = s[n:]
	return s[:n:n]
}

// earliest reports the first queued instant (units.Forever when empty).
func (q dueQueue) earliest() time.Duration {
	t := units.Forever
	for _, d := range q {
		t = min(t, d.at)
	}
	return t
}

type churnState struct {
	interval, epoch       time.Duration
	nextHealth, nextEpoch time.Duration
	kills, restarts       dueQueue
}

// nextDue reports the earliest lifecycle instant, bounding the
// coordinator's idle skip so no barrier with due work is jumped over.
func (c *churnState) nextDue() time.Duration {
	return min(c.nextEpoch, c.nextHealth, c.kills.earliest(), c.restarts.earliest())
}

// EnableChurn arms the barrier-aligned churn lifecycle: the health
// sweep, backoff restarts and the seeded arrival/departure/crash
// schedule. Call before Run. Zero-valued cc and sup fields take
// lifecycle.ChurnConfig's and lifecycle.SupervisorConfig's defaults;
// sup's CheckpointEvery is not read (see EnableCheckpoints).
func (sf *Fleet) EnableChurn(cc lifecycle.ChurnConfig, sup lifecycle.SupervisorConfig, ch chaos.Config) {
	cc, sup = cc.WithDefaults(sf.Cfg.N), sup.WithDefaults()
	sf.Controller.EnableChurn(cc, sup, ch)
	sf.churn = &churnState{interval: sup.Interval, epoch: cc.Epoch, nextHealth: sup.Interval, nextEpoch: cc.Epoch}
}

// lifecycleBarrier executes every due lifecycle action at barrier time
// sf.now, in a fixed order: crash-kills, restarts, the health sweep,
// the epoch draws.
func (sf *Fleet) lifecycleBarrier() {
	c, b := sf.churn, sf.now
	for _, k := range c.kills.take(b) {
		sf.Kill(packet.FlowID(k.key))
	}
	for _, r := range c.restarts.take(b) {
		sf.Restart(packet.FlowID(r.key))
	}
	if b >= c.nextHealth {
		sf.Health()
		c.nextHealth = b + c.interval
	}
	if b >= c.nextEpoch {
		sf.Epoch()
		c.nextEpoch = b + c.epoch
	}
}

// Host, Attach, DeferRestart and DeferKill complete the coordinator's
// lifecycle.Runtime (with Now); the membership half of it
// is the embedded fleet.Roster's.

func (sf *Fleet) Host(flow packet.FlowID) lifecycle.MemberHost { return sf.owner(flow) }

// Attach clamps the start offset strictly positive: admissions happen at
// window barriers, and the windowed protocol requires that no member
// event lands exactly ON a barrier the coordinator has already opened
// (the peek at barrier W assumes every instant ≤ W is fully processed).
func (sf *Fleet) Attach(flow packet.FlowID, snd *core.Sender, offset time.Duration) *fleet.Member {
	return sf.Roster.Attach(flow, snd, max(offset, time.Nanosecond))
}

// DeferRestart and DeferKill queue the action for the first barrier at
// or after its due instant. No fencing is needed on the restart path:
// the drain wait guarantees nothing of the predecessor is in flight when
// the successor attaches.
func (sf *Fleet) DeferRestart(flow packet.FlowID, after time.Duration) {
	sf.churn.restarts = append(sf.churn.restarts, due{at: sf.now + after, key: int(flow)})
}

func (sf *Fleet) DeferKill(flow packet.FlowID, after time.Duration) {
	sf.churn.kills = append(sf.churn.kills, due{at: sf.now + after, key: int(flow)})
}

// ReplayHash digests per-flow delivery totals, drops and the lifecycle
// event log; equal hashes mean bit-identical runs, at any shard count.
func (sf *Fleet) ReplayHash() uint64 {
	delivered := make([]int, sf.Slots())
	for i := range delivered {
		delivered[i] = sf.DeliveredTotal(packet.FlowID(i))
	}
	return lifecycle.ReplayHash(sf.Live(), sf.Drops(), sf.OrphanAcks, delivered, sf.Events)
}
