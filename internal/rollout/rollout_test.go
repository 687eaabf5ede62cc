package rollout

import (
	"sync/atomic"
	"testing"
)

// TestPoolCoversEveryIndex: every index is processed exactly once, for
// widths below, equal to, and above the job count.
func TestPoolCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 64} {
		p := New(workers)
		const n = 37
		var hits [n]int32
		p.Run(n, func(_ *Scratch, i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d processed %d times", workers, i, h)
			}
		}
	}
}

// TestPoolScratchIsPerWorker: the serial path hands out a stable
// scratch whose buffers persist across calls (that persistence is what
// makes the hot loops allocation-free).
func TestPoolScratchIsPerWorker(t *testing.T) {
	p := New(1)
	var first *Scratch
	p.Run(3, func(s *Scratch, i int) {
		if first == nil {
			first = s
		} else if s != first {
			t.Error("serial pool switched scratch mid-run")
		}
	})
	p.Run(1, func(s *Scratch, i int) {
		if s != first {
			t.Error("scratch not reused across runs")
		}
	})
}
