package obs

import (
	"sync/atomic"
	"time"
)

// Progress is a lock-free live-position gauge for one job: the simulation
// loop publishes its current sampling tick, a sweep publishes its run
// index, and any goroutine can read both plus an ETA at any time.
//
// All methods are safe on a nil receiver (every write degenerates to a
// nil check) and safe for concurrent use: each field is one packed atomic
// word, so a reader always sees a consistent (position, total) pair even
// mid-write. Progress is strictly write-only for the simulation — nothing
// reads it back into the run — so publishing through it can never perturb
// results (the records-never-steers invariant, pinned by the obs row of
// resultVariants in internal/scenario/equivalence_test.go).
type Progress struct {
	// ticks packs (current tick << 32 | total ticks) of the executing run.
	ticks atomic.Uint64
	// runs packs (completed runs << 32 | total runs) of the sweep.
	runs atomic.Uint64
	// startNs is the wall-clock start (UnixNano) recorded by Start; the
	// anchor for ETA. Zero until the job begins executing.
	startNs atomic.Int64
}

// pack clamps a (position, total) pair into one 64-bit word.
func pack(pos, total int) uint64 {
	clamp := func(v int) uint64 {
		if v < 0 {
			return 0
		}
		if v > 1<<32-1 {
			return 1<<32 - 1
		}
		return uint64(v)
	}
	return clamp(pos)<<32 | clamp(total)
}

func unpack(w uint64) (pos, total int) {
	return int(w >> 32), int(w & (1<<32 - 1))
}

// SetTicks publishes the executing run's position: tick sampling ticks
// completed out of total. One atomic store; nil-safe.
func (p *Progress) SetTicks(tick, total int) {
	if p == nil {
		return
	}
	p.ticks.Store(pack(tick, total))
}

// Ticks returns the last published (tick, total) pair; (0, 0) on nil.
func (p *Progress) Ticks() (tick, total int) {
	if p == nil {
		return 0, 0
	}
	return unpack(p.ticks.Load())
}

// SetRun publishes the sweep position: done runs completed out of total.
// One atomic store; nil-safe.
func (p *Progress) SetRun(done, total int) {
	if p == nil {
		return
	}
	p.runs.Store(pack(done, total))
}

// Run returns the last published (done, total) run pair; (0, 0) on nil.
func (p *Progress) Run() (done, total int) {
	if p == nil {
		return 0, 0
	}
	return unpack(p.runs.Load())
}

// Start anchors the ETA clock at now. The first call wins, so a resumed
// or retried caller cannot shrink the measured elapsed time; nil-safe.
func (p *Progress) Start(now time.Time) {
	if p == nil {
		return
	}
	p.startNs.CompareAndSwap(0, now.UnixNano())
}

// Fraction estimates completed work in [0, 1]: the run fraction when a
// sweep published run totals (plus the in-flight run's tick fraction),
// the tick fraction otherwise, and 0 when nothing has been published.
func (p *Progress) Fraction() float64 {
	if p == nil {
		return 0
	}
	tick, tickTotal := p.Ticks()
	done, runTotal := p.Run()
	var tickFrac float64
	if tickTotal > 0 {
		tickFrac = float64(tick) / float64(tickTotal)
		if tickFrac > 1 {
			tickFrac = 1
		}
	}
	if runTotal > 0 {
		f := (float64(done) + tickFrac) / float64(runTotal)
		if f > 1 {
			f = 1
		}
		return f
	}
	return tickFrac
}

// ETA projects the remaining wall time from the elapsed time and the
// published fraction: remaining = elapsed * (1-f)/f. It reports false
// until Start has been called and some progress exists — an estimate from
// zero information would be noise, not signal.
func (p *Progress) ETA(now time.Time) (time.Duration, bool) {
	if p == nil {
		return 0, false
	}
	start := p.startNs.Load()
	f := p.Fraction()
	if start == 0 || f <= 0 {
		return 0, false
	}
	elapsed := now.Sub(time.Unix(0, start))
	if elapsed <= 0 {
		return 0, false
	}
	rem := time.Duration(float64(elapsed) * (1 - f) / f)
	if rem < 0 {
		rem = 0
	}
	return rem, true
}
