package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestFig1Bufferbloat(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := Fig1Config{Duration: 120 * time.Second, Seed: 3}
	res := RunFig1(cfg)
	report, ok := Fig1Claims(res, cfg.withDefaults().BaseRTT)
	t.Logf("\n%s", report)
	t.Logf("min=%.3f med=%.3f p95=%.3f max=%.3f goodput=%v",
		res.MinRTT, res.MedianRTT, res.P95RTT, res.MaxRTT, res.Goodput)
	if !ok {
		t.Error("Figure 1 qualitative claims failed")
	}
	if res.RTT.Len() == 0 {
		t.Fatal("no RTT samples")
	}
	if !strings.Contains(res.Render(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestSimpleConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	res := RunSimple(11, 120*time.Second)
	t.Logf("early=%.3f pkt/s late=%.3f pkt/s", res.EarlyRate, res.LateRate)
	if !res.ConvergedToLinkSpeed {
		t.Errorf("late rate %.3f pkt/s, want ~1.0 (the paper: \"it simply sends at the link speed\")", res.LateRate)
	}
	if res.Run.OwnBufferDrops > 0 {
		t.Errorf("simple run dropped %d own packets", res.Run.OwnBufferDrops)
	}
}

func TestDrainFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	res := RunDrain(13, 90*time.Second)
	t.Logf("penalized first send at %v; unpenalized at %v",
		res.PenalizedFirstSend, res.UnpenalizedFirstSend)
	if res.PenalizedFirstSend < 0 {
		t.Fatal("penalized sender never sent")
	}
	if res.UnpenalizedFirstSend < 0 {
		t.Fatal("unpenalized sender never sent")
	}
	// The paper: with the latency penalty "the ISENDER drains the
	// buffer before sending at the link speed" — it must wait
	// substantially longer than the unpenalized sender, on the order of
	// the 4 s backlog drain.
	if res.PenalizedFirstSend < res.UnpenalizedFirstSend+2*time.Second {
		t.Errorf("penalized sender did not drain first: %v vs %v",
			res.PenalizedFirstSend, res.UnpenalizedFirstSend)
	}
	// Both must still reach steady sending.
	if res.Penalized.Sent < 10 {
		t.Errorf("penalized sender sent only %d packets", res.Penalized.Sent)
	}
}

func TestTwoISendersShare(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	res := RunTwoISenders(17, 180*time.Second)
	t.Logf("rates: A=%.3f B=%.3f pkt/s; Jain=%.3f; drops=%d",
		res.ARate, res.BRate, res.JainIndex, res.Drops)
	if res.ARate == 0 || res.BRate == 0 {
		t.Fatal("a sender starved completely")
	}
	if res.JainIndex < 0.7 {
		t.Errorf("Jain index %.3f: grossly unfair split", res.JainIndex)
	}
	// Two α=1 senders must not overload the link persistently.
	if total := res.ARate + res.BRate; total > 1.15 {
		t.Errorf("combined rate %.3f pkt/s exceeds the 1 pkt/s link", total)
	}
}

func TestISenderVsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	res := RunISenderVsTCP(19, 180*time.Second)
	t.Logf("rates: isender=%.3f tcp=%.3f pkt/s; drops=%d", res.ARate, res.BRate, res.Drops)
	// §3.5 expects TCP to bully a queue-averse sender; the experiment's
	// value is demonstrating both survive. The ISENDER must still get
	// *some* throughput and TCP must not collapse.
	if res.BRate <= 0 {
		t.Error("TCP made no progress")
	}
	if res.ARate < 0.02 {
		t.Errorf("ISENDER starved to %.3f pkt/s against TCP", res.ARate)
	}
}

func TestFig3RenderAndClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	// A minimal two-α render check on short runs.
	res := Fig3Result{}
	for _, a := range []float64{1.0, 5} {
		cfg := tinyConfig(a, 60*time.Second)
		res.Alphas = append(res.Alphas, a)
		res.Runs = append(res.Runs, RunISender(cfg))
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "α=5") {
		t.Errorf("render output incomplete:\n%s", out)
	}
}
