package main

import (
	"sort"
	"time"

	"cocoa/internal/caltable"
)

// setupReps is how many times a run repeats its set-up after one untimed
// warm-up repetition; setup_s is the median.
const setupReps = 21

// sample is one completed closed-loop request.
type sample struct {
	end       time.Time     // when the result was verified
	rt        time.Duration // issue to verified result
	run       time.Duration // the simulation work alone
	runs      int           // simulation runs the request held
	robotSimS float64       // robots x simulated seconds completed
	meanErr   float64       // mean localization error over the request's runs
}

// loopStats is what an untraced closed loop measured.
type loopStats struct {
	setup   []float64 // seconds per set-up repetition
	samples []sample
	start   time.Time
	wall    time.Duration
	proc    procStats // resource use over the loop
	// window, when set, cuts the loop into windows of this many
	// consecutive requests; the time metrics then come from the faster
	// half of them (see timed). Samples must then be in the order they
	// completed.
	window int
}

// timed returns the samples the time metrics are taken from and the
// seconds they span. Without a window that is the whole loop. With one,
// it is the half of the windows that took the least time, each window
// timed from the previous window's last result to its own: the host's
// other tenants take CPU in stretches of seconds to minutes, and a
// stretch they took reads as a slow window, so the faster half measures
// the program rather than its neighbours. A slowdown of every window
// still shows in full.
func (ls loopStats) timed() ([]sample, float64) {
	n := 0
	if ls.window > 0 {
		n = len(ls.samples) / ls.window
	}
	if n < 2 {
		return ls.samples, ls.wall.Seconds()
	}
	type span struct {
		from int
		d    time.Duration
	}
	spans := make([]span, n)
	prev := ls.start
	for i := range spans {
		end := ls.samples[(i+1)*ls.window-1].end
		spans[i] = span{i * ls.window, end.Sub(prev)}
		prev = end
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].d < spans[b].d })
	var out []sample
	var d time.Duration
	for _, sp := range spans[:(n+1)/2] {
		out = append(out, ls.samples[sp.from:sp.from+ls.window]...)
		d += sp.d
	}
	return out, d.Seconds()
}

// timeSetup runs fn once untimed, then setupReps times, and returns each
// timed duration in seconds. Each repetition starts from an empty
// calibration cache, so it pays the cold caltable.Shared that fn's first
// caller pays; the warm-up keeps the process's own first-use costs (heap
// growth, first connection) out of the median.
func timeSetup(fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i <= setupReps; i++ {
		caltable.ResetShared()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		if i > 0 {
			out = append(out, time.Since(t0).Seconds())
		}
	}
	return out, nil
}

// closedLoop issues requests one after another until e.seconds have
// passed, after one untimed warm-up request. request returns false for a
// request that failed (it records the failure itself).
func (e *env) closedLoop(setup []float64, request func() (sample, bool)) loopStats {
	request()
	ls := loopStats{setup: setup}
	p0 := readProc()
	t0 := time.Now()
	ls.start = t0
	deadline := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		if s, ok := request(); ok {
			s.end = time.Now()
			ls.samples = append(ls.samples, s)
		}
	}
	ls.wall = time.Since(t0)
	ls.proc = readProc().sub(p0)
	return ls
}

// reportEndToEnd sets every end-to-end metric from one loop. CPU,
// allocation, memory and error cover every request; the time metrics
// cover the samples timed selects.
func (e *env) reportEndToEnd(ls loopStats) {
	var errs []float64
	runs := 0
	for _, s := range ls.samples {
		errs = append(errs, s.meanErr)
		runs += s.runs
	}
	timed, seconds := ls.timed()
	var rt, run []float64
	robotSimS := 0.0
	for _, s := range timed {
		rt = append(rt, ms(s.rt))
		run = append(run, s.run.Seconds())
		robotSimS += s.robotSimS
	}
	p90, _ := percentile(rt, 90)
	p99, above := percentile(rt, 99)
	e.set("setup_s", "s", median(ls.setup))
	e.set("robot_sim_s_per_s", "robot-s/s", robotSimS/seconds)
	e.set("run_wall_s_p50", "s", median(run))
	e.set("rt_p50_ms", "ms", median(rt))
	e.set("rt_p90_ms", "ms", p90)
	e.set("jobs_per_s", "1/s", float64(len(rt))/seconds)
	if runs > 0 {
		e.set("cpu_s_per_run", "s", ls.proc.cpuS/float64(runs))
		e.set("alloc_mb_per_run", "MB", ls.proc.allocB/float64(runs)/1e6)
	}
	e.set("peak_rss_mb", "MB", peakRSSMB())
	e.set("mean_error_m", "m", mean(errs))
	e.note("requests %d (%d simulation runs) in %.3fs; time metrics from %d requests in %.3fs; p99 round trip %.4g ms with %d samples above it",
		len(ls.samples), runs, ls.wall.Seconds(), len(rt), seconds, p99, above)
	e.note("setup repetitions (s): %v", ls.setup)
}
