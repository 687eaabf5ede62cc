// Package chaos is the deterministic fault-injection layer: a seeded,
// reproducible schedule of the failures a real (cellular-style) path
// inflicts that the paper's idealized elements do not — ack-loss bursts,
// reordering, duplication, byte corruption, multi-second link blackouts,
// proxy stalls, and clock jumps.
//
// The same Config drives both worlds: an Injector plugged into
// emu.Proxy perturbs real UDP datagrams on the wire, and
// experiments.RunChaos applies the identical decision stream to the
// sends and acknowledgments of its DES run, so a fault trace found in a
// wall-clock soak run can be replayed bit-identically under the
// discrete-event clock.
//
// Determinism: every per-packet decision is drawn from a SplitMix64
// stream advanced once per consultation, and every time-window fault
// (blackout, stall, clock jump) is a fixed absolute window in the
// Config. Two injectors built from the same Config observe the same
// packet sequence make the same decisions; nothing depends on wall
// time, map order, or goroutine scheduling.
package chaos

import (
	"hash/fnv"
	"time"
)

// Window is a half-open interval [Start, Start+Len) of run time.
type Window struct {
	// Start is measured from the start of the run (proxy start or DES
	// time zero).
	Start time.Duration
	// Len is the window's length.
	Len time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool {
	return t >= w.Start && t < w.Start+w.Len
}

// End is the first instant after the window.
func (w Window) End() time.Duration { return w.Start + w.Len }

// Jump is one clock discontinuity: at base-clock time At, the chaotic
// clock's reading shifts by Delta (negative Deltas model a clock
// stepping backwards, e.g. an NTP correction mid-run).
type Jump struct {
	At    time.Duration
	Delta time.Duration
}

// Config is the fault menu. The zero value injects nothing.
type Config struct {
	// Seed drives every per-packet decision. Two injectors with the
	// same Seed and Config make identical decisions for the same
	// packet sequence.
	Seed int64

	// DropProb drops each packet i.i.d.
	DropProb float64
	// BurstProb is the per-packet probability a loss burst begins;
	// BurstLen packets (the trigger included) are then dropped
	// back-to-back. Bursty ack loss is the signature failure of lossy
	// control channels.
	BurstProb float64
	// BurstLen is the burst length in packets (default 4).
	BurstLen int
	// DupProb delivers the packet twice.
	DupProb float64
	// CorruptProb flips one byte of the datagram. On the wire the
	// mangled copy still travels; the consumer's decoder is expected
	// to reject it (that rejection is what the fuzz corpus hardens).
	// On the DES path, where packets are structs rather than bytes, a
	// corrupted packet is discarded at the injection point — the same
	// observable outcome as the decoder rejecting it.
	CorruptProb float64
	// ReorderProb holds the packet back by ReorderDelay scaled by a
	// deterministic factor in [0.5, 1.5), letting later packets
	// overtake it.
	ReorderProb float64
	// ReorderDelay is the nominal reorder hold-back (default 40 ms).
	ReorderDelay time.Duration

	// Blackouts are windows during which the link is dead: every
	// packet in either direction is dropped. These model the
	// multi-second outages of a cellular link.
	Blackouts []Window
	// Stalls are windows during which the forwarding process freezes
	// (a scheduler stall, a GC pause in the emulator): nothing is
	// dropped, but nothing moves until the window ends.
	Stalls []Window
	// ClockJumps perturb the chaotic Clock; they do not affect packet
	// verdicts.
	ClockJumps []Jump
}

// Enabled reports whether the config can inject any fault at all.
func (c Config) Enabled() bool {
	return c.DropProb > 0 || c.BurstProb > 0 || c.DupProb > 0 ||
		c.CorruptProb > 0 || c.ReorderProb > 0 ||
		len(c.Blackouts) > 0 || len(c.Stalls) > 0 || len(c.ClockJumps) > 0
}

// Sub derives the config for a named sub-stream (e.g. the ack path of a
// proxy whose data path uses the parent): identical windows, an
// independent per-packet decision stream.
func (c Config) Sub(label string) Config {
	h := fnv.New64a()
	h.Write([]byte(label))
	c.Seed = int64(splitmix(uint64(c.Seed) ^ h.Sum64()))
	return c
}

// Source is a raw deterministic draw stream over a Config's seed, for
// consumers that schedule their own faults — the lifecycle admission
// controller derives its churn schedule (arrivals, departures,
// crash-kills) from Sub("churn").Source() — rather than consuming
// per-packet Verdicts. It advances exactly like an Injector's decision
// stream: one SplitMix64 step per draw, nothing dependent on wall time
// or scheduling, so the same seed replays the same schedule
// bit-identically. Not safe for concurrent use.
type Source struct{ ctr uint64 }

// Source returns the config's draw stream, positioned at its start.
func (c Config) Source() *Source { return &Source{ctr: splitmix(uint64(c.Seed))} }

// Uint64 advances the stream one step.
func (s *Source) Uint64() uint64 {
	s.ctr++
	return splitmix(s.ctr)
}

// Float64 draws uniformly from [0, 1).
func (s *Source) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Intn draws uniformly from [0, n); n must be positive.
func (s *Source) Intn(n int) int { return int(s.Uint64() % uint64(n)) }

// Clock wraps a base clock with the schedule's jumps. The returned
// clock is NOT guaranteed monotone — that is the point: consumers
// (transport.Sender) must clamp. Jump times are in base-clock terms.
func (c Config) Clock(base func() time.Duration) func() time.Duration {
	jumps := append([]Jump(nil), c.ClockJumps...)
	return func() time.Duration {
		t := base()
		out := t
		for _, j := range jumps {
			if t >= j.At {
				out += j.Delta
			}
		}
		return out
	}
}

// Verdict is the injector's decision for one packet.
type Verdict struct {
	// Drop discards the packet (i.i.d. loss, a burst, or a blackout).
	Drop bool
	// Duplicate delivers the packet a second time.
	Duplicate bool
	// Corrupt flips one byte (see ApplyCorrupt); DES consumers treat
	// it as a drop.
	Corrupt bool
	// CorruptOffset selects the flipped byte (reduced modulo the
	// datagram length at application time).
	CorruptOffset uint32
	// CorruptXOR is the nonzero mask XORed into the selected byte.
	CorruptXOR byte
	// Delay holds the packet back before delivery (reordering).
	Delay time.Duration
}

// ApplyCorrupt flips the verdict's byte in b in place. It is a no-op
// when the verdict does not corrupt or b is empty.
func (v Verdict) ApplyCorrupt(b []byte) {
	if !v.Corrupt || len(b) == 0 {
		return
	}
	b[int(v.CorruptOffset)%len(b)] ^= v.CorruptXOR
}

// Stats counts injected faults. Read it only after the goroutine
// driving the injector has stopped (e.g. after Proxy.Run returns).
type Stats struct {
	// Packets counts consultations (one per packet offered).
	Packets int64
	// Dropped counts i.i.d. and burst drops.
	Dropped int64
	// Blackholed counts packets swallowed by a blackout window.
	Blackholed int64
	// Corrupted, Duplicated, Reordered count the respective verdicts.
	Corrupted, Duplicated, Reordered int64
}

// Injector turns a Config into a deterministic per-packet decision
// stream. It is not safe for concurrent use: each path (forward, ack)
// gets its own Injector, each driven by a single goroutine.
type Injector struct {
	cfg       Config
	ctr       uint64 // SplitMix64 counter
	burstLeft int

	// Stats tallies what was injected.
	Stats Stats
}

// New builds an injector for the config.
func New(cfg Config) *Injector {
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 4
	}
	if cfg.ReorderDelay <= 0 {
		cfg.ReorderDelay = 40 * time.Millisecond
	}
	return &Injector{cfg: cfg, ctr: splitmix(uint64(cfg.Seed))}
}

// Config returns the injector's (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// draw advances the decision stream.
func (in *Injector) draw() uint64 {
	in.ctr++
	return splitmix(in.ctr)
}

// f64 draws a float in [0, 1).
func (in *Injector) f64() float64 {
	return float64(in.draw()>>11) / (1 << 53)
}

// InBlackout reports whether now falls inside a blackout window.
func (in *Injector) InBlackout(now time.Duration) bool {
	for _, w := range in.cfg.Blackouts {
		if w.Contains(now) {
			return true
		}
	}
	return false
}

// StallUntil reports the end of the stall window containing now, if
// any.
func (in *Injector) StallUntil(now time.Duration) (time.Duration, bool) {
	for _, w := range in.cfg.Stalls {
		if w.Contains(now) {
			return w.End(), true
		}
	}
	return 0, false
}

// Next returns the verdict for the next packet, observed at run time
// now. Verdicts are drawn in a fixed order (burst, drop, corrupt, dup,
// reorder) so the stream replays identically for a given Config.
func (in *Injector) Next(now time.Duration) Verdict {
	in.Stats.Packets++
	var v Verdict
	if in.InBlackout(now) {
		in.Stats.Blackholed++
		v.Drop = true
		return v
	}
	if in.burstLeft > 0 {
		in.burstLeft--
		in.Stats.Dropped++
		v.Drop = true
		return v
	}
	if in.cfg.BurstProb > 0 && in.f64() < in.cfg.BurstProb {
		in.burstLeft = in.cfg.BurstLen - 1
		in.Stats.Dropped++
		v.Drop = true
		return v
	}
	if in.cfg.DropProb > 0 && in.f64() < in.cfg.DropProb {
		in.Stats.Dropped++
		v.Drop = true
		return v
	}
	if in.cfg.CorruptProb > 0 && in.f64() < in.cfg.CorruptProb {
		r := in.draw()
		v.Corrupt = true
		v.CorruptOffset = uint32(r)
		v.CorruptXOR = byte(r>>32) | 1 // never zero: the flip must flip
		in.Stats.Corrupted++
	}
	if in.cfg.DupProb > 0 && in.f64() < in.cfg.DupProb {
		v.Duplicate = true
		in.Stats.Duplicated++
	}
	if in.cfg.ReorderProb > 0 && in.f64() < in.cfg.ReorderProb {
		scale := 0.5 + in.f64()
		v.Delay = time.Duration(scale * float64(in.cfg.ReorderDelay))
		in.Stats.Reordered++
	}
	return v
}

// splitmix is SplitMix64's step: it hashes a counter word into 64
// well-mixed bits, so a stream is one counter and replays from its seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
