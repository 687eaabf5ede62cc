package main

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is a fixed piece of work that belongs to the
// benchmark and never changes with the program under test. The host this
// benchmark runs on changes speed by a quarter and more, for seconds or
// for minutes at a time (a shared machine: wall time, CPU time and every
// latency of one binary move together), so ten runs of one commit spread
// by 15-25 % however the readings inside a run are combined. Over twelve
// runs of each workload the kernel's time followed the workload's with a
// correlation of 0.96-0.99 and an exponent of 0.90-0.94. So every repeat
// times the kernel alongside its work, and the host times it reports are
// divided by how much slower than refNominal the kernel ran (wall times
// by its wall clock, CPU times and decision latencies by its thread's
// CPU clock): seconds at the reference host speed, not seconds on what
// the neighbours left over. It is one goroutine's yardstick, which is
// why every timed window keeps one goroutine busy.
//
// Its work is of the kinds the workloads do: a container/heap of timed
// events popped and pushed back (two small allocations and a handful of
// interface calls a step, as the boxing there costs), exp, hashed
// lookups into a 64 Ki-entry map, scattered reads and writes over 1 MiB
// of floats. Three candidates were timed beside the workloads: this one;
// the same without the allocations, which the workloads outran when the
// host slowed (exponent 1.1-1.3, spread after division twice as wide);
// and a pointer chase over 16 MiB, which followed them poorly (r 0.7).
// The stopwatch takes the kernel's time and allocations back out of the
// window it was sampled in.

// refNominal is the kernel's time on the calibration host at the fastest
// that host usually runs (the 5th percentile of 2940 samples taken
// between slices of shard-1024 over ten minutes was 11.7 ms, the median
// 14.6 ms, the 95th percentile 18.9 ms). At that speed a reported time
// is the time read.
const refNominal = 12 * time.Millisecond

// refEvery is the least time between two samples, which keeps the kernel
// to about a twentieth of a window.
const refEvery = 250 * time.Millisecond

const (
	refEvents = 1024
	refSteps  = 30000
	refKeys   = 1 << 16
	refFloats = 1 << 17
)

type refEvent struct {
	at float64
	id uint32
}

// ref is the kernel's data. A run samples from one goroutine; mu is for
// the tests, which run workloads side by side.
var ref = struct {
	mu    sync.Mutex
	table map[uint64]uint32
	keys  []uint64
	heap  refHeap
	buf   []float64
	sink  float64
}{
	table: make(map[uint64]uint32, refKeys),
	keys:  make([]uint64, refKeys),
	heap:  make(refHeap, 0, refEvents),
	buf:   make([]float64, refFloats),
}

func init() {
	x := uint64(88172645463325252)
	for i := range ref.keys {
		x = xorshift(x)
		ref.keys[i] = x
		ref.table[x] = uint32(i)
	}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refHeap is a heap.Interface over events by time.
type refHeap []refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old) - 1
	x := old[n]
	*h = old[:n]
	return x
}

// refKernel runs the kernel once, on the calling goroutine, and returns
// the wall seconds it took and the CPU seconds its thread spent on it.
// The two part when a neighbour takes the processor away: the wall
// clock feels that and the CPU clock does not, and the same is true of
// the workload's own readings.
func refKernel() (wall, cpu float64) {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	t0 := time.Now()
	x := uint64(2463534242)
	h := &ref.heap
	*h = (*h)[:0]
	for i := 0; i < refEvents; i++ {
		x = xorshift(x)
		heap.Push(h, refEvent{at: float64(x>>40) * 1e-3, id: uint32(i)})
	}
	var acc float64
	for i := 0; i < refSteps; i++ {
		ev := heap.Pop(h).(refEvent)
		x = xorshift(x)
		v := ref.table[ref.keys[x%refKeys]]
		j := int(v) * 7919 % refFloats
		ref.buf[j] += math.Exp(-ev.at * 1e-4)
		acc += ref.buf[j*31%refFloats]
		ev.at += float64(v%1024) * 1e-2
		heap.Push(h, ev)
	}
	ref.sink += acc
	return time.Since(t0).Seconds(), threadCPUSeconds() - c0
}

// threadCPUSeconds is the CPU time of the calling thread. It reads the
// thread's clock: getrusage(RUSAGE_THREAD) is a scheduler tick stale,
// a third of what the kernel takes.
func threadCPUSeconds() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
