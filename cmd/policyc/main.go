// Command policyc compiles, inspects and verifies compiled policy tables
// (internal/policy).
//
// Usage:
//
//	policyc compile -o table.pol [-n 32] [-dur 30s] [-seeds 1,2,3] [-note s]
//	    Replay fleet runs and write the fingerprint → action map of
//	    their decisions as a compiled table.
//
//	policyc inspect table.pol...
//	    Print header identity, provenance, and record counts.
//
//	policyc verify table.pol [-serve] [-n 32] [-dur 30s] [-seed 5] [-minhit 0.9]
//	    Round-trip every record through the serving path (bit-identical
//	    or non-zero exit). With -serve, additionally replay a fleet run
//	    against the table and require the compiled hit rate ≥ -minhit.
//
// compile and verify take -workers, the rollout pool's width (0 =
// GOMAXPROCS).
//
// Exit status: 0 on success, 1 on a failed operation, 2 on a usage error
// (an unknown subcommand or flag, -n < 1, a non-positive -dur, -minhit
// outside [0, 1], a negative -workers, a -seeds entry that is not an
// integer, or a wrong number of file arguments).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"modelcc/internal/fleet"
	"modelcc/internal/policy"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "compile":
		err = runCompile(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "policyc:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: policyc {compile|inspect|verify} [flags]")
	os.Exit(2)
}

// checkRanges refuses replay flags outside their domain — a fleet of no
// members, a replay of no length, a hit-rate floor that is not a
// fraction, a pool of negative width. A non-nil error is a usage error
// (exit 2).
func checkRanges(n int, dur time.Duration, minhit float64, workers int) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n %d: must be at least 1", n)
	case dur <= 0:
		return fmt.Errorf("-dur %v: must be positive", dur)
	case !(minhit >= 0 && minhit <= 1):
		return fmt.Errorf("-minhit %v: must be a fraction in [0, 1]", minhit)
	case workers < 0:
		return fmt.Errorf("-workers %d: must not be negative", workers)
	}
	return nil
}

// checkUsage exits 2 on a usage error.
func checkUsage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "policyc:", err)
		os.Exit(2)
	}
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds %q: %q is not an integer", s, f)
		}
		out = append(out, v)
	}
	return out, nil
}

func runCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	out := fs.String("o", "policy.pol", "output table path")
	n := fs.Int("n", 32, "fleet size of the compile workload")
	dur := fs.Duration("dur", 30*time.Second, "virtual duration per replay")
	seeds := fs.String("seeds", "1", "comma-separated replay seeds")
	note := fs.String("note", "", "provenance note recorded in the header")
	workers := fs.Int("workers", 0, "rollout workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	checkUsage(checkRanges(*n, *dur, 0, *workers))
	sd, err := parseSeeds(*seeds)
	checkUsage(err)

	cc := policy.CompileConfig{
		Fleet:    fleet.Config{N: *n, Workers: *workers},
		Seeds:    sd,
		Duration: *dur,
		Note:     *note,
	}
	h, recs, stats, err := policy.Compile(cc)
	if err != nil {
		return err
	}
	if err := policy.WriteTable(*out, h, recs); err != nil {
		return err
	}
	fmt.Printf("compiled %s: %d records from %d replay(s) (%d decisions, %d collisions dropped)\n",
		*out, stats.Unique, stats.Runs, stats.Stored, stats.Collisions)
	return nil
}

func runInspect(args []string) error {
	if len(args) == 0 {
		checkUsage(fmt.Errorf("inspect: no files"))
	}
	for _, path := range args {
		t, err := policy.Open(path)
		if err != nil {
			return err
		}
		h := t.Header()
		t.Close()
		fmt.Printf("%s:\n", path)
		fmt.Printf("  records        %d\n", h.Records)
		fmt.Printf("  fleet n        %d\n", h.FleetN)
		fmt.Printf("  time quantum   %v\n", h.TimeQuantum)
		fmt.Printf("  weight quantum %g\n", h.WeightQuantum)
		fmt.Printf("  prior hash     %016x\n", h.PriorHash)
		fmt.Printf("  build seed     %d\n", h.BuildSeed)
		fmt.Printf("  created        %s\n", time.Unix(h.Created, 0).UTC().Format(time.RFC3339))
		if h.Note != "" {
			fmt.Printf("  note           %q\n", h.Note)
		}
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	serve := fs.Bool("serve", false, "also replay a fleet run against the table")
	n := fs.Int("n", 32, "fleet size of the serve replay")
	dur := fs.Duration("dur", 30*time.Second, "virtual duration of the serve replay")
	seed := fs.Int64("seed", 1, "serve replay seed")
	minhit := fs.Float64("minhit", 0.9, "minimum compiled hit rate for -serve")
	workers := fs.Int("workers", 0, "rollout workers (0 = GOMAXPROCS)")
	fs.Parse(args)
	checkUsage(checkRanges(*n, *dur, *minhit, *workers))
	if fs.NArg() != 1 {
		checkUsage(fmt.Errorf("verify: want exactly one table path, got %d", fs.NArg()))
	}
	path := fs.Arg(0)

	t, err := policy.Open(path)
	if err != nil {
		return err
	}
	defer t.Close()
	if err := t.Verify(); err != nil {
		return err
	}
	fmt.Printf("%s: %d records, serve path bit-identical to recorded actions\n", path, t.Len())

	if !*serve {
		return nil
	}
	cfg := fleet.Config{N: *n, Workers: *workers, Seed: *seed}
	if err := t.Header().CheckPrior(cfg.ResolvedPrior()); err != nil {
		return err
	}
	srv := policy.NewServer(t, nil)
	cfg.Table = srv
	fl := fleet.New(cfg)
	fl.Run(*dur)
	compiled, live := fl.CompiledStats()
	total := compiled + live
	if total == 0 {
		return fmt.Errorf("serve replay made no decisions")
	}
	rate := float64(compiled) / float64(total)
	fmt.Printf("serve replay: n=%d dur=%v seed=%d  hit rate %.4f (%d compiled / %d live)\n",
		*n, *dur, *seed, rate, compiled, live)
	if rate < *minhit {
		return fmt.Errorf("hit rate %.4f below floor %.4f", rate, *minhit)
	}
	return nil
}
