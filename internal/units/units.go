// Package units provides the small set of quantity helpers shared by the
// simulator, the inference model, and the transports: bit counts, bit
// rates, and conversions between bits and virtual time.
//
// Virtual time throughout the repository is a time.Duration measured from
// the start of an experiment. Rates are float64 bits per second, matching
// the paper's parameterization (e.g. the Figure 2 link is c = 12,000 bits
// per second, one 1500-byte packet per second).
package units

import (
	"fmt"
	"math"
	"time"
)

// BitRate is a link or source rate in bits per second.
type BitRate float64

// Common rates used by the paper's experiments and the trace generator.
const (
	// BitPerSecond is the unit rate.
	BitPerSecond BitRate = 1
	// KilobitPerSecond is 1000 bits per second.
	KilobitPerSecond BitRate = 1e3
	// MegabitPerSecond is 10^6 bits per second.
	MegabitPerSecond BitRate = 1e6
)

// String renders the rate with an adaptive unit, e.g. "12 kbit/s".
func (r BitRate) String() string {
	switch {
	case r >= MegabitPerSecond:
		return fmt.Sprintf("%g Mbit/s", float64(r)/1e6)
	case r >= KilobitPerSecond:
		return fmt.Sprintf("%g kbit/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%g bit/s", float64(r))
	}
}

// BytesToBits converts a byte count to bits.
func BytesToBits(n int) int64 { return int64(n) * 8 }

// TransmitTime reports how long a payload of the given number of bits
// occupies a link of rate r: bits / r. It returns 0 for non-positive bit
// counts and a very large duration for non-positive rates (the payload
// never finishes serializing on a dead link).
func TransmitTime(bits int64, r BitRate) time.Duration {
	if bits <= 0 {
		return 0
	}
	if r <= 0 {
		return Forever
	}
	sec := float64(bits) / float64(r)
	return SecondsToDuration(sec)
}

// BitsOver reports how many whole bits a link of rate r serializes in d.
func BitsOver(r BitRate, d time.Duration) int64 {
	if r <= 0 || d <= 0 {
		return 0
	}
	return int64(float64(r) * d.Seconds())
}

// Forever is a sentinel duration far beyond any experiment horizon. It is
// used for "never" deadlines; it is about 292 years.
const Forever = time.Duration(math.MaxInt64)

// SecondsToDuration converts a float64 second count to a time.Duration,
// saturating at Forever instead of overflowing.
func SecondsToDuration(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	ns := sec * float64(time.Second)
	if ns >= float64(math.MaxInt64) {
		return Forever
	}
	return time.Duration(ns)
}
