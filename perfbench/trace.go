package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"cocoa/internal/telemetry"
)

// perLayer lists every per-layer metric with its unit. Every traced run
// reports all of them; a layer a workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"bayes.apply_beacon_us", "us"},
	{"bayes.applies_per_run", "count"},
	{"bayes.renorm_taken_ratio", "ratio"},
	{"sim.stream_derive_ns", "ns"},
	{"sim.events_per_run", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"mac.broadcast_us", "us"},
	{"mac.receiver_visits_per_run", "count"},
	{"mac.index_cells_scanned_per_run", "count"},
	{"mac.index_candidates_per_run", "count"},
	{"mac.useful_visit_ratio", "ratio"},
	{"mac.pool_hit_ratio", "ratio"},
	{"radio.sample_rssi_ns", "ns"},
	{"odometry.step_ns", "ns"},
	{"mobility.position_ns", "ns"},
	{"energy.set_state_ns", "ns"},
	{"cocoa.new_team_ms", "ms"},
	{"cocoa.run_ms", "ms"},
	{"cocoa.result_encode_ms", "ms"},
	{"caltable.calibrate_s", "s"},
	{"checkpoint.overhead_ms_per_job", "ms"},
	{"checkpoint.snapshot_bytes", "bytes"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.result_fetch_ms", "ms"},
	{"serve.result_bytes", "bytes"},
	{"runner.queue_wait_ms", "ms"},
	{"runner.busy_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_run", "count"},
	{"trace_overhead_frac", "ratio"},
}

// cpuPackages maps each cpu_share.<name> metric to the import path whose
// flat CPU it reports. cpu_share.runtime also counts the runtime's own
// internal/runtime/... packages (map and atomic operations).
var cpuPackages = []struct{ name, pkg string }{
	{"bayes", "cocoa/internal/bayes"},
	{"sim", "cocoa/internal/sim"},
	{"mac", "cocoa/internal/mac"},
	{"radio", "cocoa/internal/radio"},
	{"odometry", "cocoa/internal/odometry"},
	{"mobility", "cocoa/internal/mobility"},
	{"energy", "cocoa/internal/energy"},
	{"checkpoint", "cocoa/internal/checkpoint"},
	{"serve", "cocoa/internal/serve"},
	{"encoding_json", "encoding/json"},
	{"net_http", "net/http"},
	{"runtime", "runtime"},
}

// initPerLayer sets every per-layer metric to 0 so the result line always
// carries the full set.
func (e *env) initPerLayer() {
	for _, m := range perLayer {
		e.set(m.name, m.unit, 0)
	}
	for _, c := range cpuPackages {
		e.set("cpu_share."+c.name, "ratio", 0)
	}
}

// pass runs one fixed unit of a workload's work — the same inputs every
// time — and reports its wall time and how many simulation runs it held.
// traced tells the pass whether its timings will be kept.
type pass func(traced bool) (passStats, error)

type passStats struct {
	wall time.Duration
	runs int
}

// tracedPasses is what alternate measured.
type tracedPasses struct {
	traced, untraced []passStats
	counts           map[string]int64 // counter deltas of the first traced pass
	cpu              *cpuShares
	proc             procStats // resource use summed over the traced passes
}

// runs is the number of simulation runs summed over the traced passes.
func (tp *tracedPasses) runs() int {
	n := 0
	for _, p := range tp.traced {
		n += p.runs
	}
	return n
}

// perRun divides the first traced pass's counter delta by its run count.
func (tp *tracedPasses) perRun(name string) float64 {
	if len(tp.traced) == 0 || tp.traced[0].runs == 0 {
		return 0
	}
	return float64(tp.counts[name]) / float64(tp.traced[0].runs)
}

func (tp *tracedPasses) ratio(num, other string) float64 {
	a, b := tp.counts[num], tp.counts[other]
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// alternate runs untraced and traced passes in alternating order until
// budget is spent (at least minPairs pairs). A traced pass runs with the
// telemetry registry enabled and a CPU profile recording. Every traced
// pass must produce exactly the counter deltas of the first one; the
// comparison is recorded as one checked output.
func (e *env) alternate(budget time.Duration, minPairs int, p pass) (*tracedPasses, error) {
	tp := &tracedPasses{cpu: newCPUShares()}
	start := time.Now()
	var mismatch []string
	for i := 0; i < minPairs || time.Since(start) < budget; i++ {
		for _, traced := range []bool{i%2 == 1, i%2 == 0} {
			if !traced {
				ps, err := p(false)
				if err != nil {
					return nil, err
				}
				tp.untraced = append(tp.untraced, ps)
				continue
			}
			telemetry.Default.SetEnabled(true)
			before := telemetry.Default.Snapshot()
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			p0 := readProc()
			ps, err := p(true)
			p1 := readProc()
			pprof.StopCPUProfile()
			telemetry.Default.SetEnabled(false)
			if err != nil {
				return nil, err
			}
			tp.proc = tp.proc.add(p1.sub(p0))
			if err := tp.cpu.add(prof.Bytes()); err != nil {
				return nil, err
			}
			counts := counterDelta(before, telemetry.Default.Snapshot())
			if tp.counts == nil {
				tp.counts = counts
			} else if diff := diffCounts(tp.counts, counts); diff != "" {
				mismatch = append(mismatch, diff)
			}
			tp.traced = append(tp.traced, ps)
		}
	}
	e.check(len(mismatch) == 0, "counter deltas differ between traced passes: %s", strings.Join(mismatch, "; "))
	e.note("traced passes: %d, untraced passes: %d, runs per pass: %d", len(tp.traced), len(tp.untraced), tp.traced[0].runs)
	return tp, nil
}

func counterDelta(before, after telemetry.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for _, c := range telemetry.Diff(before, after).Counters {
		out[c.Name] = c.Value
	}
	return out
}

func diffCounts(want, got map[string]int64) string {
	var bad []string
	for k, v := range got {
		if want[k] != v {
			bad = append(bad, fmt.Sprintf("%s %d != %d", k, v, want[k]))
		}
	}
	for k, v := range want {
		if _, ok := got[k]; !ok && v != 0 {
			bad = append(bad, fmt.Sprintf("%s missing", k))
		}
	}
	sort.Strings(bad)
	return strings.Join(bad, ", ")
}

// reportPasses sets the metrics every workload derives the same way from
// its alternating passes: work counts per run, GC cost, CPU shares, and
// the tracing overhead.
func (e *env) reportPasses(tp *tracedPasses) {
	e.set("bayes.applies_per_run", "count",
		tp.perRun("bayes.apply.nearest")+tp.perRun("bayes.apply.lerp")+tp.perRun("bayes.apply.generic"))
	e.set("bayes.renorm_taken_ratio", "ratio", tp.ratio("bayes.renorm_taken", "bayes.renorm_deferred"))
	e.set("sim.events_per_run", "count", tp.perRun("sim.events_dispatched"))
	e.set("mac.receiver_visits_per_run", "count", tp.perRun("mac.receiver_visits"))
	e.set("mac.index_cells_scanned_per_run", "count", tp.perRun("mac.index_cells_scanned"))
	e.set("mac.index_candidates_per_run", "count", tp.perRun("mac.index_candidates"))
	if v := tp.counts["mac.receiver_visits"]; v > 0 {
		e.set("mac.useful_visit_ratio", "ratio", float64(tp.counts["mac.delivered"])/float64(v))
	}
	e.set("mac.pool_hit_ratio", "ratio", tp.ratio("mac.pool_hits", "mac.pool_misses"))
	if tp.proc.totalCPU > 0 {
		e.set("runtime.gc_cpu_frac", "ratio", tp.proc.gcCPU/tp.proc.totalCPU)
	}
	if n := tp.runs(); n > 0 {
		e.set("runtime.gc_cycles_per_run", "count", tp.proc.gcCycles/float64(n))
	}
	for _, c := range cpuPackages {
		v := tp.cpu.share(c.pkg)
		if c.name == "runtime" {
			v += tp.cpu.share("internal/runtime/maps") + tp.cpu.share("internal/runtime/atomic")
		}
		e.set("cpu_share."+c.name, "ratio", v)
	}
	var tw, uw []float64
	for _, p := range tp.traced {
		tw = append(tw, p.wall.Seconds())
	}
	for _, p := range tp.untraced {
		uw = append(uw, p.wall.Seconds())
	}
	if u := median(uw); u > 0 {
		e.set("trace_overhead_frac", "ratio", median(tw)/u-1)
	}
	e.note("traced pass wall median %.4fs, untraced %.4fs; profile total %.2f CPU s",
		median(tw), median(uw), float64(tp.cpu.total)/1e9)
	e.note("top packages by flat CPU: %s", tp.cpu.top(8))
}

// top lists the n packages with the most flat CPU.
func (c *cpuShares) top(n int) string {
	type kv struct {
		k string
		v int64
	}
	var all []kv
	for k, v := range c.byPkg {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	var parts []string
	for i := 0; i < len(all) && i < n; i++ {
		parts = append(parts, fmt.Sprintf("%s %.3f", all[i].k, c.share(all[i].k)))
	}
	return strings.Join(parts, ", ")
}
