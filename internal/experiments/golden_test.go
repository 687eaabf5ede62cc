package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Golden regression tests: the Figure 1 and Figure 3 headline numbers
// are pinned to exact values under fixed seeds, so performance work can
// never silently change results again. The runs are bit-deterministic
// on a given architecture — every quantity below is reproduced exactly,
// not approximately. If a change legitimately alters behaviour (a new
// planning approximation, a model fix), rerun with -v — every failure
// message prints the observed value — update the constants, and say why
// in the commit.
//
// Floating-point outputs pass through math.Exp, whose implementation is
// architecture-specific assembly; the pinned values are amd64's (what CI
// runs). Other architectures skip rather than chase per-arch constants.

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden values pinned on amd64; running on %s", runtime.GOARCH)
	}
}

func TestGoldenFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	skipUnlessAMD64(t)
	res := RunFig1(Fig1Config{Duration: 120 * time.Second, Seed: 3})

	if got, want := res.Delivered, int64(17975); got != want {
		t.Errorf("Fig1 delivered = %d, want %d", got, want)
	}
	if got, want := res.Timeouts, int64(2); got != want {
		t.Errorf("Fig1 timeouts = %d, want %d", got, want)
	}
	if got, want := res.FastRetransmits, int64(0); got != want {
		t.Errorf("Fig1 fast retransmits = %d, want %d", got, want)
	}
	if got, want := res.MaxQueueBits, int64(1848000); got != want {
		t.Errorf("Fig1 max queue bits = %d, want %d", got, want)
	}
	for name, pair := range map[string][2]string{
		"min rtt":    {fmt.Sprintf("%.9g", res.MinRTT), "0.051825597"},
		"median rtt": {fmt.Sprintf("%.9g", res.MedianRTT), "0.443168633"},
		"max rtt":    {fmt.Sprintf("%.9g", res.MaxRTT), "3.14096411"},
	} {
		if pair[0] != pair[1] {
			t.Errorf("Fig1 %s = %s, want %s", name, pair[0], pair[1])
		}
	}
}

func TestGoldenFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	skipUnlessAMD64(t)
	want := map[float64]struct {
		sent, acked int64
		ownDrops    int
		crossDrops  int
		utility     string
	}{
		0.9: {59, 44, 0, 7, "471581.597"},
		1:   {50, 40, 0, 0, "444496.097"},
		2.5: {44, 35, 0, 0, "408338.076"},
		5:   {41, 33, 0, 0, "386141.272"},
	}
	for _, alpha := range Fig3Alphas {
		res := RunISender(Fig3Config(alpha, 42, 120*time.Second))
		w := want[alpha]
		if res.Sent != w.sent || res.Acked != w.acked {
			t.Errorf("Fig3 α=%g: sent/acked = %d/%d, want %d/%d",
				alpha, res.Sent, res.Acked, w.sent, w.acked)
		}
		if res.OwnBufferDrops != w.ownDrops || res.CrossBufferDrops != w.crossDrops {
			t.Errorf("Fig3 α=%g: drops = %d/%d, want %d/%d",
				alpha, res.OwnBufferDrops, res.CrossBufferDrops, w.ownDrops, w.crossDrops)
		}
		if got := fmt.Sprintf("%.9g", res.Utility); got != w.utility {
			t.Errorf("Fig3 α=%g: utility = %s, want %s", alpha, got, w.utility)
		}
	}
}

// TestGoldenChaos pins RunChaos under the acceptance fault menu — the
// cross-commit comparison key for runSolo's chaotic arm (faultTap, ack
// injector, Recover): a change that moves any of these changed what the
// DES run does, not just how fast. TestChaosReplayBitIdentical holds the
// same run equal to itself; this holds it equal to the last commit's.
func TestGoldenChaos(t *testing.T) {
	skipUnlessAMD64(t)
	res := RunChaos(ChaosConfig{Base: chaosBase(120 * time.Second), Faults: chaosMenu()})
	if got, want := res.Hash, uint64(0x0564ac47d9d7240d); got != want {
		t.Errorf("chaos hash = %#016x, want %#016x", got, want)
	}
	if res.Sent != 60 || res.Acked != 25 || res.Reseeded != 19 {
		t.Errorf("chaos sent/acked/reseeded = %d/%d/%d, want 60/25/19", res.Sent, res.Acked, res.Reseeded)
	}
}
