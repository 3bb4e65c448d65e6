package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) and
// how many samples lie strictly above it.
func percentile(xs []float64, p float64) (v float64, above int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	v = s[rank-1]
	for _, x := range s[rank:] {
		if x > v {
			above++
		}
	}
	return v, above
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procStats is a point-in-time reading of the process's resource use.
type procStats struct {
	cpuS     float64 // user + system CPU seconds
	allocB   float64 // cumulative heap bytes allocated
	gcCycles float64
	gcCPU    float64 // runtime estimate of CPU seconds spent in GC
	totalCPU float64 // runtime estimate of all CPU seconds available to Go
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return procStats{
		cpuS:     tv(ru.Utime) + tv(ru.Stime),
		allocB:   val(0),
		gcCycles: val(1),
		gcCPU:    val(2),
		totalCPU: val(3),
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func (a procStats) sub(b procStats) procStats {
	return a.add(procStats{-b.cpuS, -b.allocB, -b.gcCycles, -b.gcCPU, -b.totalCPU})
}

func (a procStats) add(b procStats) procStats {
	return procStats{
		cpuS: a.cpuS + b.cpuS, allocB: a.allocB + b.allocB, gcCycles: a.gcCycles + b.gcCycles,
		gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU,
	}
}

// peakRSSMB is the process's high-water resident set, in MB (2^20 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
