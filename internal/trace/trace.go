// Package trace defines packet-delivery traces for emulating cellular
// links, in the style the later literature standardized (one timestamped
// delivery opportunity per MTU-sized packet; mahimahi-compatible text
// format: one millisecond timestamp per line).
//
// The paper's Figure 1 was measured on the Verizon LTE network in
// Cambridge in October 2011. We do not have that capture, so the
// generator in this package synthesizes LTE-like traces — a rate that
// wanders over an order of magnitude on a one-second timescale, plus
// occasional multi-second outages — which exercise the identical code
// path and reproduce the bufferbloat mechanism Figure 1 demonstrates
// (cmd/bufferbloat and cmd/tracegen; README.md, "Layout").
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"modelcc/internal/units"
)

// Trace is a schedule of delivery opportunities: at each timestamp the
// link can carry one MTU-sized packet. When Period is positive the
// schedule repeats cyclically with that period, following the mahimahi
// convention.
type Trace struct {
	// Opportunities are the grant times, sorted ascending.
	Opportunities []time.Duration
	// Period wraps the schedule; 0 means the trace is finite.
	Period time.Duration
}

// Validate checks ordering and bounds.
func (t *Trace) Validate() error {
	if len(t.Opportunities) == 0 {
		return fmt.Errorf("trace: no opportunities")
	}
	for i := 1; i < len(t.Opportunities); i++ {
		if t.Opportunities[i] < t.Opportunities[i-1] {
			return fmt.Errorf("trace: opportunities out of order at %d", i)
		}
	}
	if t.Period > 0 && t.Opportunities[len(t.Opportunities)-1] >= t.Period {
		return fmt.Errorf("trace: opportunity beyond period")
	}
	return nil
}

// Next returns the first opportunity strictly after d. For cyclic traces
// it never fails; for finite traces ok is false after the last grant.
func (t *Trace) Next(d time.Duration) (time.Duration, bool) {
	if len(t.Opportunities) == 0 {
		return 0, false
	}
	if t.Period <= 0 {
		i := sort.Search(len(t.Opportunities), func(i int) bool { return t.Opportunities[i] > d })
		if i == len(t.Opportunities) {
			return 0, false
		}
		return t.Opportunities[i], true
	}
	cycle := d / t.Period
	offset := d % t.Period
	i := sort.Search(len(t.Opportunities), func(i int) bool { return t.Opportunities[i] > offset })
	if i == len(t.Opportunities) {
		return (cycle+1)*t.Period + t.Opportunities[0], true
	}
	return cycle*t.Period + t.Opportunities[i], true
}

// MeanRate reports the trace's average delivery rate for the given
// packet size in bits.
func (t *Trace) MeanRate(pktBits int64) units.BitRate {
	if len(t.Opportunities) == 0 {
		return 0
	}
	span := t.Period
	if span <= 0 {
		span = t.Opportunities[len(t.Opportunities)-1]
	}
	if span <= 0 {
		return 0
	}
	return units.BitRate(float64(int64(len(t.Opportunities))*pktBits) / span.Seconds())
}

// Constant returns a cyclic trace delivering at a fixed rate for the
// given packet size.
func Constant(rate units.BitRate, pktBits int64) Trace {
	interval := units.TransmitTime(pktBits, rate)
	// One period of one second (or one interval if slower than 1/s).
	period := time.Second
	if interval >= period {
		period = interval
	}
	var opps []time.Duration
	for at := interval; at <= period; at += interval {
		opps = append(opps, at-1) // keep strictly inside the period
	}
	return Trace{Opportunities: opps, Period: period}
}

// LTEConfig tunes the synthetic cellular generator.
type LTEConfig struct {
	// Duration is the (acyclic) trace length.
	Duration time.Duration
	// MinRate and MaxRate bound the wandering link rate.
	MinRate, MaxRate units.BitRate
	// OutageProb is the per-second probability an outage begins.
	OutageProb float64
	// OutageMax bounds outage length.
	OutageMax time.Duration
	// PktBits is the per-opportunity grant size (default 12000).
	PktBits int64
}

// DefaultLTE returns generator settings that reproduce the Figure 1
// regime: a rate wandering between 0.5 and 8 Mbit/s with occasional
// outages of up to 4 s.
func DefaultLTE(duration time.Duration) LTEConfig {
	return LTEConfig{
		Duration:   duration,
		MinRate:    0.5 * units.MegabitPerSecond,
		MaxRate:    8 * units.MegabitPerSecond,
		OutageProb: 0.02,
		OutageMax:  4 * time.Second,
		PktBits:    12000,
	}
}

// GenLTE synthesizes an LTE-like delivery trace: the instantaneous rate
// follows a geometric random walk between MinRate and MaxRate, re-drawn
// every 100 ms, with memoryless outages.
func GenLTE(cfg LTEConfig, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	if cfg.PktBits <= 0 {
		cfg.PktBits = 12000
	}
	logMin, logMax := math.Log(float64(cfg.MinRate)), math.Log(float64(cfg.MaxRate))
	logRate := (logMin + logMax) / 2
	var opps []time.Duration
	var outageUntil time.Duration
	const step = 100 * time.Millisecond

	credit := 0.0 // fractional packets accumulated
	for at := time.Duration(0); at < cfg.Duration; at += step {
		// Outage process, checked once per second-boundary step.
		if at%time.Second == 0 && at >= outageUntil && rng.Float64() < cfg.OutageProb {
			outageUntil = at + time.Duration(rng.Float64()*float64(cfg.OutageMax))
		}
		if at < outageUntil {
			continue
		}
		// Random walk in log-rate with reflection.
		logRate += rng.NormFloat64() * 0.15
		if logRate > logMax {
			logRate = 2*logMax - logRate
		}
		if logRate < logMin {
			logRate = 2*logMin - logRate
		}
		rate := math.Exp(logRate)
		credit += rate * step.Seconds() / float64(cfg.PktBits)
		n := int(credit)
		credit -= float64(n)
		for i := 0; i < n; i++ {
			frac := (float64(i) + rng.Float64()) / float64(n)
			opps = append(opps, at+time.Duration(frac*float64(step)))
		}
	}
	sort.Slice(opps, func(i, j int) bool { return opps[i] < opps[j] })
	return Trace{Opportunities: opps}
}

// Format writes the trace in mahimahi text format: one integer
// millisecond timestamp per line.
func Format(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	for _, o := range t.Opportunities {
		if _, err := fmt.Fprintf(bw, "%d\n", o.Milliseconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a mahimahi-format trace: one integer millisecond per
// line; blank lines and #-comments are ignored. The result is cyclic
// with the last timestamp (rounded up to a whole millisecond) as its
// period, matching mahimahi's convention.
func Parse(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Trace{}, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if ms < 0 {
			return Trace{}, fmt.Errorf("trace: line %d: negative timestamp", line)
		}
		t.Opportunities = append(t.Opportunities, time.Duration(ms)*time.Millisecond)
	}
	if err := sc.Err(); err != nil {
		return Trace{}, fmt.Errorf("trace: %w", err)
	}
	if len(t.Opportunities) == 0 {
		return Trace{}, fmt.Errorf("trace: empty")
	}
	last := t.Opportunities[len(t.Opportunities)-1]
	t.Period = last + time.Millisecond
	// Keep the last opportunity strictly inside the period.
	sort.Slice(t.Opportunities, func(i, j int) bool { return t.Opportunities[i] < t.Opportunities[j] })
	return t, t.Validate()
}
