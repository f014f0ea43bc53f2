package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs with
// linear interpolation between closest ranks, or 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeatMedian calls fn at least minReps times and until minTime has
// passed (at most maxReps times) and returns the median of the
// durations fn measured. Set-up costs of a few milliseconds or less
// repeat within a few percent only as a median over many calls.
func repeatMedian(minReps, maxReps int, minTime time.Duration, fn func() (time.Duration, error)) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < maxReps && (len(ds) < minReps || time.Since(start) < minTime) {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// maxRSSMB returns the peak resident set of this process in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memDelta is the Go runtime's allocation and GC work over a phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// memSnapshot reads the counters memDelta subtracts.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// runtimeMetrics normalizes a phase's runtime work per trial (and per
// thousand trials), so runs of different lengths compare.
func runtimeMetrics(d memDelta, trials int64, out map[string]metric) {
	if trials <= 0 {
		trials = 1
	}
	kt := float64(trials) / 1000
	out["runtime.alloc_kb_per_trial"] = metric{float64(d.allocBytes) / 1024 / float64(trials), "kB"}
	out["runtime.gc_cycles"] = metric{float64(d.gcCycles) / kt, "count/ktrial"}
	out["runtime.gc_pause_ms"] = metric{ms(d.gcPause) / kt, "ms/ktrial"}
}
