package lifecycle

import (
	"testing"
	"time"
)

// TestBackoffSaturates: the restart delay is min(base·2^k, cap) —
// non-decreasing in k, never above the cap, and equal to the cap once
// base·2^k would overflow. (Regression: base<<min(k, 30) wrapped for
// bases above 2^33 ns, so a 2^34+1 ns base waited 2^30 ns ≈ 1.07 s at
// k = 30 instead of the cap.)
func TestBackoffSaturates(t *testing.T) {
	cases := []struct {
		name      string
		base, cap time.Duration
	}{
		{"defaults", 0, 0},
		{"half second", 500 * time.Millisecond, 16 * time.Second},
		{"three seconds", 3 * time.Second, 16 * time.Second},
		{"ten seconds", 10 * time.Second, 16 * time.Second},
		{"twenty seconds", 20 * time.Second, 16 * time.Second},
		{"one nanosecond", time.Nanosecond, time.Hour},
		{"wraps a 30-bit shift", 1<<34 + 1, 0},
		{"wraps under a far cap", 1<<34 + 1, 1 << 62},
		{"cap at the top", time.Second, 1<<63 - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := SupervisorConfig{BackoffBase: tc.base, BackoffCap: tc.cap}.WithDefaults()
			prev := time.Duration(0)
			for k := 0; k <= 80; k++ {
				d := c.Backoff(k)
				if d < prev {
					t.Fatalf("attempt %d waits %v, less than attempt %d's %v", k, d, k-1, prev)
				}
				if d > c.BackoffCap || d <= 0 {
					t.Fatalf("attempt %d waits %v, outside (0, %v]", k, d, c.BackoffCap)
				}
				if k < 62 && c.BackoffBase <= c.BackoffCap>>k && d != c.BackoffBase<<k {
					t.Fatalf("attempt %d waits %v, want %v·2^%d = %v", k, d, c.BackoffBase, k, c.BackoffBase<<k)
				}
				prev = d
			}
			if got := c.Backoff(80); got != c.BackoffCap {
				t.Fatalf("attempt 80 waits %v, want the cap %v", got, c.BackoffCap)
			}
		})
	}
	wrap := SupervisorConfig{BackoffBase: 1<<34 + 1}.WithDefaults()
	if got := wrap.Backoff(30); got != wrap.BackoffCap {
		t.Fatalf("a 2^34+1 ns base at attempt 30 waits %v, want the cap %v", got, wrap.BackoffCap)
	}
}
