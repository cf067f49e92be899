package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, lowered if needed to the highest percentile that still has at least
// minBeyond samples above it. It also returns the percentile actually used,
// which is below q when xs is too small for q.
func tailPercentile(xs []float64, q float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if maxRank := n - minBeyond; rank > maxRank {
		rank = maxRank
	}
	if rank < 1 {
		rank = 1
	}
	s := sorted(xs)
	return s[rank-1], float64(rank) / float64(n)
}

// memSnap is the Go runtime's allocation and GC state at one instant.
type memSnap struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// micros converts a duration to microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
