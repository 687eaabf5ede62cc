package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is the instant setup_s counts from. Package variables are
// initialised before main, so this is as early as the program can look.
var processStart = time.Now()

// hostCost is what one timed window cost the host, as read.
type hostCost struct {
	wall, cpu  float64 // seconds
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64 // seconds the collector used, all classes
	peakRSSMiB float64 // ru_maxrss when the window closed
}

// add folds another window into c; peak RSS is a high-water mark.
func (c *hostCost) add(o hostCost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.allocBytes += o.allocBytes
	c.mallocs += o.mallocs
	c.gcCycles += o.gcCycles
	c.gcCPU += o.gcCPU
	c.peakRSSMiB = math.Max(c.peakRSSMiB, o.peakRSSMiB)
}

// stopwatch brackets a timed window. Begin collects garbage first so
// that no window pays for its predecessor's heap. The reference kernel
// (ref.go) is timed inside the window, between its units of work, and
// what it costs is kept out of every reading.
type stopwatch struct {
	t0    time.Time
	cpu0  float64
	ms0   runtime.MemStats
	gcCPU float64

	refs            []slowdown // one per sample of the kernel
	lastRef         time.Time
	refWall, refCPU float64 // spent on samples so far
	refAlloc        uint64  // bytes the samples allocated
	refMallocs      uint64
}

func cpuSeconds() (cpu, maxRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
		panic(err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func begin() *stopwatch {
	runtime.GC()
	w := &stopwatch{}
	runtime.ReadMemStats(&w.ms0)
	w.gcCPU = gcCPUSeconds()
	w.cpu0, _ = cpuSeconds()
	w.t0 = time.Now()
	return w
}

// slowdown is how many times slower than the reference speed the host
// ran, by each clock: the kernel's wall time and its CPU time, over
// refNominal. Wall readings (wall_s_per_vsec, setup_s)
// are divided by the first. CPU readings and decision latencies are
// divided by the second: a neighbour that takes a processor away makes
// the work wait, which neither the CPU clock nor a 100 µs decision sees.
type slowdown struct{ wall, cpu float64 }

// sampleSlowdown times the kernel once.
func sampleSlowdown() slowdown {
	wall, cpu := refKernel()
	return slowdown{wall / refNominal.Seconds(), cpu / refNominal.Seconds()}
}

// meanSlowdown is the slowdown over a stretch of work from the samples
// taken during it. The mean, not the median: a sample that caught the
// host at its slowest is a slowness the work between samples met too.
func meanSlowdown(refs []slowdown) slowdown {
	var m slowdown
	for _, r := range refs {
		m.wall += r.wall / float64(len(refs))
		m.cpu += r.cpu / float64(len(refs))
	}
	return m
}

// sampleRef times the reference kernel, unless the last sample is less
// than refEvery old. Call it between units of work, never inside one.
func (w *stopwatch) sampleRef() {
	t0 := time.Now()
	if len(w.refs) > 0 && t0.Sub(w.lastRef) < refEvery {
		return
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, _ := cpuSeconds()
	w.refs = append(w.refs, sampleSlowdown())
	c1, _ := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	w.lastRef = time.Now()
	w.refWall += w.lastRef.Sub(t0).Seconds()
	w.refCPU += c1 - c0
	w.refAlloc += ms1.TotalAlloc - ms0.TotalAlloc
	w.refMallocs += ms1.Mallocs - ms0.Mallocs
}

// slowdown is how many times slower than the reference speed the host
// ran while the window was open.
func (w *stopwatch) slowdown() slowdown { return meanSlowdown(w.refs) }

// elapsed returns the wall and CPU seconds the window's own work has
// taken so far.
func (w *stopwatch) elapsed() (wall, cpu float64) {
	cpu, _ = cpuSeconds()
	return time.Since(w.t0).Seconds() - w.refWall, cpu - w.cpu0 - w.refCPU
}

func (w *stopwatch) end() hostCost {
	wall, cpu := w.elapsed()
	_, rss := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostCost{
		wall:       wall,
		cpu:        cpu,
		allocBytes: ms.TotalAlloc - w.ms0.TotalAlloc - w.refAlloc,
		mallocs:    ms.Mallocs - w.ms0.Mallocs - w.refMallocs,
		gcCycles:   ms.NumGC - w.ms0.NumGC,
		gcCPU:      gcCPUSeconds() - w.gcCPU,
		peakRSSMiB: rss,
	}
}

// hostFacts describes the machine a run was taken on.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadBefore string `json:"loadavg_before"`
	LoadAfter  string `json:"loadavg_after"`
	// SlowdownWall and SlowdownCPU are the medians over the timed
	// repeats of the reference kernel's wall and CPU time over
	// refNominal.
	SlowdownWall float64 `json:"slowdown_wall"`
	SlowdownCPU  float64 `json:"slowdown_cpu"`
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// overloaded reports whether a /proc/loadavg line shows more runnable
// work over the last minute than the host has processors.
func overloaded(load string, nproc int) bool {
	f := strings.Fields(load)
	if len(f) == 0 {
		return false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	return err == nil && v > float64(nproc)
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
