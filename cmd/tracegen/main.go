// Command tracegen synthesizes cellular-like packet-delivery traces in
// mahimahi format (one millisecond timestamp per line) for emu.TraceLink,
// the trace-driven link of the simulator.
//
// Usage:
//
//	tracegen [-duration 60s] [-seed 1] [-min 0.5e6] [-max 8e6] [-outage 0.02] > cell.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"modelcc/internal/trace"
	"modelcc/internal/units"
)

// checkRanges refuses generator parameters outside their domain. A
// non-nil error is a usage error.
func checkRanges(duration time.Duration, min, max, outage float64) error {
	switch {
	case duration <= 0:
		return fmt.Errorf("-duration %v: must be positive", duration)
	case !(min > 0):
		return fmt.Errorf("-min %v: must be positive", min)
	case !(min <= max):
		return fmt.Errorf("-min %v: must not exceed -max %v", min, max)
	case !(outage >= 0 && outage <= 1):
		return fmt.Errorf("-outage %v: must be a probability in [0, 1]", outage)
	}
	return nil
}

func main() {
	duration := flag.Duration("duration", 60*time.Second, "trace length")
	seed := flag.Int64("seed", 1, "generator seed")
	min := flag.Float64("min", 0.5e6, "minimum rate (bits/second)")
	max := flag.Float64("max", 8e6, "maximum rate (bits/second)")
	outage := flag.Float64("outage", 0.02, "per-second outage probability")
	flag.Parse()
	if err := checkRanges(*duration, *min, *max, *outage); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(2)
	}

	cfg := trace.LTEConfig{
		Duration:   *duration,
		MinRate:    units.BitRate(*min),
		MaxRate:    units.BitRate(*max),
		OutageProb: *outage,
		OutageMax:  4 * time.Second,
	}
	tr := trace.GenLTE(cfg, *seed)
	if err := trace.Format(os.Stdout, tr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d opportunities, mean rate %v\n",
		len(tr.Opportunities), tr.MeanRate(12000))
}
