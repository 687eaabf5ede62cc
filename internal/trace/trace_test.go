package trace

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"modelcc/internal/units"
)

func TestConstantTraceRate(t *testing.T) {
	tr := Constant(1200_000, 12000) // 100 pkt/s
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rate := tr.MeanRate(12000)
	if rate < 1_100_000 || rate > 1_300_000 {
		t.Errorf("mean rate = %v, want ~1.2 Mbit/s", rate)
	}
}

func TestNextCyclic(t *testing.T) {
	tr := Trace{
		Opportunities: []time.Duration{100 * time.Millisecond, 600 * time.Millisecond},
		Period:        time.Second,
	}
	tests := []struct {
		at   time.Duration
		want time.Duration
	}{
		{0, 100 * time.Millisecond},
		{100 * time.Millisecond, 600 * time.Millisecond},
		{700 * time.Millisecond, 1100 * time.Millisecond}, // wraps
		{2600 * time.Millisecond, 3100 * time.Millisecond},
	}
	for _, tt := range tests {
		got, ok := tr.Next(tt.at)
		if !ok || got != tt.want {
			t.Errorf("Next(%v) = %v,%v want %v", tt.at, got, ok, tt.want)
		}
	}
}

func TestNextFinite(t *testing.T) {
	tr := Trace{Opportunities: []time.Duration{time.Second, 2 * time.Second}}
	if got, ok := tr.Next(1500 * time.Millisecond); !ok || got != 2*time.Second {
		t.Errorf("Next = %v,%v", got, ok)
	}
	if _, ok := tr.Next(2 * time.Second); ok {
		t.Error("finite trace should exhaust")
	}
	var empty Trace
	if _, ok := empty.Next(0); ok {
		t.Error("empty trace returned an opportunity")
	}
}

func TestGenLTEProperties(t *testing.T) {
	cfg := DefaultLTE(60 * time.Second)
	tr := GenLTE(cfg, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rate := tr.MeanRate(12000)
	if rate < cfg.MinRate/2 || rate > cfg.MaxRate {
		t.Errorf("LTE mean rate %v outside plausible band [%v, %v]", rate, cfg.MinRate, cfg.MaxRate)
	}
	// Variability: the rate over 5s windows must vary by at least 2x
	// between the fastest and slowest window (it is a cellular trace,
	// not a constant link).
	counts := map[int]int{}
	for _, o := range tr.Opportunities {
		counts[int(o/(5*time.Second))]++
	}
	min, max := 1<<30, 0
	for w := 0; w < int(60/5); w++ {
		c := counts[w]
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min*2 > max {
		t.Errorf("trace too steady: min window %d, max window %d", min, max)
	}
}

func TestGenLTEDeterministic(t *testing.T) {
	cfg := DefaultLTE(20 * time.Second)
	a := GenLTE(cfg, 7)
	b := GenLTE(cfg, 7)
	if len(a.Opportunities) != len(b.Opportunities) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a.Opportunities {
		if a.Opportunities[i] != b.Opportunities[i] {
			t.Fatal("same seed, different trace")
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	orig := Trace{Opportunities: []time.Duration{
		5 * time.Millisecond, 17 * time.Millisecond, 1200 * time.Millisecond,
	}}
	var sb strings.Builder
	if err := Format(&sb, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Opportunities) != 3 {
		t.Fatalf("round trip lost opportunities: %v", got.Opportunities)
	}
	for i, o := range orig.Opportunities {
		if got.Opportunities[i] != o {
			t.Errorf("opportunity %d: %v != %v", i, got.Opportunities[i], o)
		}
	}
	if got.Period != 1201*time.Millisecond {
		t.Errorf("period = %v, want 1.201s (mahimahi convention)", got.Period)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{"", "abc\n", "-5\n"}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse(%q) succeeded", c)
		}
	}
	// Comments and blanks are fine.
	tr, err := Parse(strings.NewReader("# comment\n\n10\n20\n"))
	if err != nil || len(tr.Opportunities) != 2 {
		t.Errorf("comment handling broken: %v %v", tr, err)
	}
}

// TestParseRejectsOverflow: a timestamp whose nanoseconds overflow is
// refused with its line, not wrapped into a negative period.
func TestParseRejectsOverflow(t *testing.T) {
	for _, c := range []struct {
		in   string
		line int
	}{{"200000000000000", 1}, {"10\n9223372036854\n", 2}} {
		tr, err := Parse(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("Parse(%q) = period %v, no error", c.in, tr.Period)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("line %d", c.line)) {
			t.Errorf("Parse(%q): %v, want an error naming line %d", c.in, err, c.line)
		}
	}
}

// TestValidatePeriodSign: a negative period is refused; zero is a finite
// trace.
func TestValidatePeriodSign(t *testing.T) {
	negative := Trace{Opportunities: []time.Duration{time.Second}, Period: -time.Hour}
	if negative.Validate() == nil {
		t.Error("negative-period trace validated")
	}
	finite := Trace{Opportunities: []time.Duration{time.Second}}
	if err := finite.Validate(); err != nil {
		t.Errorf("finite trace (period 0) refused: %v", err)
	}
}

// TestParseTakesPeriodAfterSorting: an unsorted file's period is its
// largest timestamp plus a millisecond, not its last line's.
func TestParseTakesPeriodAfterSorting(t *testing.T) {
	tr, err := Parse(strings.NewReader("5\n9\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond}
	if !slices.Equal(tr.Opportunities, want) || tr.Period != 10*time.Millisecond {
		t.Errorf("got %v period %v, want %v period 10ms", tr.Opportunities, tr.Period, want)
	}
}

// FuzzParse: Parse returns an error, or a trace that validates with every
// opportunity inside its period.
func FuzzParse(f *testing.F) {
	f.Add("200000000000000")
	f.Add("5\n9\n3\n")
	f.Add("# comment\n\n10\n20\n")
	f.Add("0\n0\n")
	f.Add("9223372036853\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Parse(%q) returned a trace that fails Validate: %v", in, err)
		}
		for _, o := range tr.Opportunities {
			if o >= tr.Period {
				t.Fatalf("Parse(%q): opportunity %v not inside period %v", in, o, tr.Period)
			}
		}
	})
}

func TestValidate(t *testing.T) {
	bad := Trace{Opportunities: []time.Duration{2 * time.Second, time.Second}}
	if bad.Validate() == nil {
		t.Error("out-of-order trace validated")
	}
	bad2 := Trace{Opportunities: []time.Duration{2 * time.Second}, Period: time.Second}
	if bad2.Validate() == nil {
		t.Error("beyond-period trace validated")
	}
	var empty Trace
	if empty.Validate() == nil {
		t.Error("empty trace validated")
	}
	_ = units.BitPerSecond
}
