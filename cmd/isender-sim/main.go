// Command isender-sim reproduces the paper's Figure 3: the ISENDER
// against intermittent cross traffic on the Figure 2 topology, one curve
// per cross-traffic priority α.
//
// Usage:
//
//	isender-sim [-duration 300s] [-seed 42] [-alphas 0.9,1,2.5,5] [-tsv] [-claims]
//
// Exit status: 0 on success, 1 when -claims fails, 2 on a usage error (a
// non-positive -duration, a negative or non-finite priority).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"modelcc/internal/experiments"
)

func main() {
	duration := flag.Duration("duration", 300*time.Second, "virtual experiment length")
	seed := flag.Int64("seed", 42, "ground-truth random seed")
	alphasFlag := flag.String("alphas", "0.9,1,2.5,5", "comma-separated cross-traffic priorities")
	tsv := flag.Bool("tsv", false, "emit raw sequence-vs-time TSV instead of the plot")
	claims := flag.Bool("claims", false, "check the paper's qualitative claims (exit 1 on failure)")
	flag.Parse()

	alphas, err := parseAlphas(*alphasFlag)
	if err == nil {
		err = checkRanges(*duration, alphas)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "isender-sim:", err)
		os.Exit(2)
	}

	res := experiments.RunFig3(*seed, *duration, alphas...)

	if *tsv {
		for i := range res.Runs {
			fmt.Printf("# alpha=%g (time_s\tacked_seq)\n", res.Alphas[i])
			fmt.Print(res.Runs[i].AckedSeq.TSV())
			fmt.Println()
		}
	} else {
		fmt.Print(res.Render())
	}

	if *claims {
		report, ok := experiments.Fig3Claims(res)
		fmt.Println()
		fmt.Print(report)
		if !ok {
			os.Exit(1)
		}
	}
}

// checkRanges refuses flag values outside their domain — a negative
// -duration would run nothing and exit 0, a negative or NaN priority
// would plan against a meaningless utility. A non-nil error is a usage
// error.
func checkRanges(duration time.Duration, alphas []float64) error {
	if duration <= 0 {
		return fmt.Errorf("-duration %v: must be positive", duration)
	}
	for _, a := range alphas {
		if !(a >= 0) || math.IsInf(a, 0) {
			return fmt.Errorf("-alphas %v: a priority must be a finite number, not negative", a)
		}
	}
	return nil
}

func parseAlphas(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad alpha %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no alphas given")
	}
	return out, nil
}
