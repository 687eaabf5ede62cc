package experiments

import (
	"fmt"
	"strings"
	"time"

	"modelcc/internal/model"
	"modelcc/internal/stats"
	"modelcc/internal/utility"
)

// Fig3Alphas are the cross-traffic priorities the paper plots in
// Figure 3.
var Fig3Alphas = []float64{0.9, 1.0, 2.5, 5}

// Fig3Config builds the paper's Figure 3 run for one α: the Figure 2
// topology with its true parameters, the §4 prior, a square-wave gate
// the sender believes to be memoryless, and the α-weighted utility.
func Fig3Config(alpha float64, seed int64, duration time.Duration) ISenderConfig {
	u := utility.Default()
	u.Alpha = alpha
	return ISenderConfig{
		Actual:        model.Fig2Actual(),
		PingerOnStart: true,
		Gate:          model.GateSquareWave,
		HalfPeriod:    100 * time.Second,
		Prior:         model.Fig3Prior(),
		Utility:       u,
		Duration:      duration,
		Seed:          seed,
	}
}

// Fig3Result bundles the per-α runs.
type Fig3Result struct {
	// Alphas echoes the α values, in run order.
	Alphas []float64
	// Runs holds the per-α results.
	Runs []ISenderResult
}

// RunFig3 reproduces Figure 3: one run per α over the same ground truth
// seed, so the cross traffic toggles identically across curves.
func RunFig3(seed int64, duration time.Duration, alphas ...float64) Fig3Result {
	if len(alphas) == 0 {
		alphas = Fig3Alphas
	}
	var out Fig3Result
	for _, a := range alphas {
		out.Alphas = append(out.Alphas, a)
		out.Runs = append(out.Runs, RunISender(Fig3Config(a, seed, duration)))
	}
	return out
}

// Render prints the figure as sequence-number-vs-time curves plus the
// summary table the analysis text of §4 makes claims about.
func (r Fig3Result) Render() string {
	var b strings.Builder
	var series []*stats.Series
	for i := range r.Runs {
		s := r.Runs[i].AckedSeq
		s.Name = fmt.Sprintf("α=%g", r.Alphas[i])
		series = append(series, &s)
	}
	b.WriteString(stats.Plot(stats.PlotConfig{
		Width:  76,
		Height: 24,
		Title:  "Figure 3: sequence number vs time (cross traffic on 0-100s, off 100-200s, on 200-300s)",
		YLabel: "acked seq",
	}, series...))
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %14s %14s\n",
		"alpha", "sent", "acked", "own drops", "cross drops", "goodput(b/s)")
	for i, run := range r.Runs {
		fmt.Fprintf(&b, "%-8g %10d %10d %12d %14d %14.1f\n",
			r.Alphas[i], run.Sent, run.Acked, run.OwnBufferDrops, run.CrossBufferDrops, float64(run.OwnThroughput))
	}
	return b.String()
}

// Fig3Claims checks the paper's qualitative claims against a result and
// returns a report; every line is prefixed PASS or FAIL. The claims, from
// §4:
//
//  1. "Irrespective of α, the sender starts out slowly when it is
//     uncertain of the channel parameters."
//  2. "During the period that the cross traffic is not sending, the
//     ISENDER always sends at the exact link speed."
//  3. "When α > 1, the sender becomes more and more deferential to the
//     cross traffic" — goodput during contention decreases with α.
//  4. "Except for the case when α < 1, the ISENDER never causes a buffer
//     overflow."
func Fig3Claims(r Fig3Result) (report string, ok bool) {
	var b strings.Builder
	ok = true
	check := func(pass bool, format string, args ...any) {
		if pass {
			b.WriteString("PASS ")
		} else {
			b.WriteString("FAIL ")
			ok = false
		}
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}

	idx := map[float64]int{}
	for i, a := range r.Alphas {
		idx[a] = i
	}

	// Claim 1: early rate well below final rate for every α.
	for i, run := range r.Runs {
		early := run.AckedSeq.Rate(0, 20*time.Second)
		quiet := run.AckedSeq.Rate(120*time.Second, 195*time.Second)
		check(early < quiet || quiet == 0,
			"claim 1 (α=%g): early rate %.3f pkt/s < quiet-period rate %.3f pkt/s", r.Alphas[i], early, quiet)
	}

	// Claim 2: during 100-200 s (cross off) acked-seq slope approaches
	// the link speed, 1 pkt/s (measured after the sender has had time
	// to notice the gate opened).
	for i, run := range r.Runs {
		rate := run.AckedSeq.Rate(140*time.Second, 195*time.Second)
		check(rate > 0.6 && rate < 1.15,
			"claim 2 (α=%g): quiet-period delivery rate %.3f pkt/s ≈ 0.8 pkt/s (link speed × (1-p))", r.Alphas[i], rate)
	}

	// Claim 3: goodput while competing (0-100 s) ordered by α.
	if len(r.Alphas) >= 2 {
		prevRate := -1.0
		for i := len(r.Alphas) - 1; i >= 0; i-- {
			rate := r.Runs[i].AckedSeq.Rate(30*time.Second, 95*time.Second)
			check(rate >= prevRate-0.05,
				"claim 3: contention rate %.3f pkt/s at α=%g not lower than at larger α", rate, r.Alphas[i])
			prevRate = rate
		}
	}

	// Claim 4: no buffer overflows for α >= 1. At exactly α = 1 the
	// gain from a delivered own packet and the loss from the cross
	// packet it displaces balance exactly, so residual posterior
	// uncertainty about the gate (P(on) never reaches 1 against a
	// square wave the model believes is memoryless) can tip isolated
	// decisions; we therefore allow at most one drop per run at the
	// boundary and require strictly zero above it. That balance makes
	// α = 1 a knife edge: a planner change that moves a tie there moves
	// its drop count, which is a flipped decision to find, not noise.
	for i, run := range r.Runs {
		drops := run.OwnBufferDrops + run.CrossBufferDrops
		switch {
		case r.Alphas[i] > 1:
			check(drops == 0, "claim 4 (α=%g): buffer drops = %d, want 0", r.Alphas[i], drops)
		case r.Alphas[i] == 1:
			check(drops <= 1, "claim 4 (α=1, knife-edge): buffer drops = %d, want <= 1", drops)
		default:
			check(true, "claim 4 (α=%g): %d drops (flooding allowed below 1)", r.Alphas[i], drops)
		}
	}

	return b.String(), ok
}
