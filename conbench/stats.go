package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
// It returns NaN for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// supports reports whether n samples leave at least minBeyond samples
// above the nearest-rank p-th percentile.
func supports(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n > 0 && n-rank >= minBeyond
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work
// has no waste to report).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usage is the process's user and system CPU time.
type usage struct{ user, sys time.Duration }

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}
}

func (u usage) sub(v usage) usage { return usage{u.user - v.user, u.sys - v.sys} }

func (u usage) add(v usage) usage { return usage{u.user + v.user, u.sys + v.sys} }

func (u usage) cpu() time.Duration { return u.user + u.sys }

// peakRSSMB returns the process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSample is the slice of runtime.MemStats the Go runtime layer
// reports: allocations, bytes allocated, GC cycles and pause time.
type memSample struct {
	mallocs, bytes uint64
	gcs            uint32
	pause          time.Duration
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc, ms.NumGC, time.Duration(ms.PauseTotalNs)}
}

func (a memSample) sub(b memSample) memSample {
	return memSample{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pause - b.pause}
}

func (a memSample) add(b memSample) memSample {
	return memSample{a.mallocs + b.mallocs, a.bytes + b.bytes, a.gcs + b.gcs, a.pause + b.pause}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
