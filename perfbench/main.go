// Command perfbench is the repository's benchmark. It runs one workload in
// this process, checks every output the workload produces, and prints the
// workload's metrics as one JSON object on the last line of standard
// output:
//
//	perfbench -root <repo> -out <scratch> -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// perfbench/run.sh builds it from the checkout and supplies -root and -out.
//
// With -trace 0 the run is untraced and reports the end-to-end metrics.
// With -trace 1 the run enables the telemetry registry and a CPU profile
// and reports the per-layer metrics: telemetry counter deltas per run, the
// benchmark's own timings of each module's public functions, replays of
// those functions on inputs built from the workload's config and seed, and
// the profile's flat CPU aggregated by package. The registry is
// process-global, so a process runs exactly one workload. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: the flags, the output tally, and
// the metrics it fills in.
type env struct {
	root    string // repository root: goldens are read from here
	out     string // scratch directory for state files, removed at exit
	seed    int64
	seconds float64
	nproc   int

	mu        sync.Mutex // guards the tally: checks run on several goroutines
	attempted int
	failed    int
	problems  []string // first few failure descriptions, for stderr

	metrics map[string]metric
	notes   []string // sample counts and context, printed to stderr
}

func (e *env) set(name, unit string, v float64) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// check records one verified output: ok false counts it as failed.
func (e *env) check(ok bool, format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if ok {
		return
	}
	e.failed++
	if len(e.problems) < 8 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark input set.
type workload interface {
	// untraced runs the closed loop for e.seconds and sets every
	// end-to-end metric.
	untraced(e *env) error
	// traced sets every per-layer metric.
	traced(e *env) error
}

var workloads = map[string]workload{
	"paper-replication": paperReplication{},
	"swarm-1000":        swarm{},
	"cocoad-durable":    &cocoad{},
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root")
	out := fs.String("out", ".bench_build", "directory for temporary state")
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	record := fs.Bool("record", false, "rerun every reference input and rewrite reference.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *record {
		if err := recordReferences(*root); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(names, "|"))
		return 2
	}

	tmp, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	e := &env{
		root: *root, out: tmp, seed: *seed, seconds: *seconds,
		nproc: runtime.GOMAXPROCS(0), metrics: map[string]metric{},
	}
	if *trace == 1 {
		err = w.traced(e)
	} else {
		err = w.untraced(e)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *name)
		return 1
	}
	for k, m := range e.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			return 1
		}
	}

	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %g trace %d GOMAXPROCS %d %s\n",
		*name, *seed, *seconds, *trace, e.nproc, runtime.Version())
	for _, n := range e.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	fmt.Fprintf(os.Stderr, "  failed_frac %g (%d of %d checked outputs)\n",
		float64(e.failed)/float64(e.attempted), e.failed, e.attempted)
	for _, p := range e.problems {
		fmt.Fprintln(os.Stderr, "  FAILED: "+p)
	}
	keys := make([]string, 0, len(e.metrics))
	for k := range e.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", k, e.metrics[k].Value, e.metrics[k].Unit)
	}

	b, err := json.Marshal(result{
		Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: e.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
