package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cocoa/internal/checkpoint"
	"cocoa/internal/cocoa"
	"cocoa/internal/faults"
	"cocoa/internal/obs"
	"cocoa/internal/telemetry"
)

// resultVariants is the one table of ways to run the same work that must
// leave its results unchanged (DESIGN.md §6): reference implementations,
// execution knobs, operational devices and attached recorders. A new
// invariant costs one row. TestResultVariants checks every row against a
// production oracle computed once per subject and shared across rows.
var resultVariants = map[string]resultVariant{
	"scan": {
		registry:  underReference(cocoa.Reference{ScanIndex: true}),
		config:    runReference(cocoa.Reference{ScanIndex: true}),
		telemetry: true,
		// The index's own instruments, and per-receiver visits: pruning
		// them is the index's whole point.
		volatile: []string{"mac.index_", "mac.receiver_visits"},
	},
	"eager": {
		registry:  underReference(cocoa.Reference{EagerStats: true}),
		config:    runReference(cocoa.Reference{EagerStats: true}),
		within1e9: true,
	},
	"parallelism": {registry: func(ctx context.Context, o Options) (context.Context, Options) {
		o.Parallelism = 4
		return ctx, o
	}},
	"workers": {config: runWorkers, telemetry: true},
	"obs":     {config: runObserved, telemetry: true},
	"scratch": {config: runScratch, telemetry: true},
	"resume":  {config: runResumed, telemetry: true},
	"telemetry": {config: once(func(cfg cocoa.Config) (*cocoa.Result, error) {
		telemetry.Default.SetEnabled(false) // the oracle ran with it enabled
		defer telemetry.Default.SetEnabled(true)
		return cocoa.Run(cfg)
	})},
	"observer": {config: once(func(cfg cocoa.Config) (*cocoa.Result, error) {
		team, err := cocoa.NewTeam(cfg)
		if err != nil {
			return nil, err
		}
		team.Observe(func(cocoa.Event) {})
		return team.Run()
	}), telemetry: true},
}

// resultVariant is one row: how to run work under the variant, and what
// agreement with the oracle it owes. A row runs on the registry axis, the
// config axis, or both.
type resultVariant struct {
	// registry runs every registered experiment at equivOpts (UpdateWorkers
	// 1 and 8) under the variant by rewriting what d.Run receives.
	registry func(ctx context.Context, o Options) (context.Context, Options)
	// config runs each of variantConfigs under the variant, handing check
	// every run whose Result must match the oracle's.
	config func(t *testing.T, cfg cocoa.Config, check checkFunc)
	// within1e9 relaxes identical results (same JSON bytes, and DeepEqual
	// Results on the config axis, so json:"-" fields count too) to
	// numericallyAgree: the incremental grid statistics round differently
	// than an eager scan.
	within1e9 bool
	// telemetry makes each config-axis run's counter and histogram deltas
	// part of the contract, except instruments starting with a volatile
	// prefix or one of alwaysVolatile.
	telemetry bool
	volatile  []string
}

// checkFunc measures one run and compares it with the oracle, failing t;
// label names the run when a row runs a config more than once.
type checkFunc func(t *testing.T, label string, run func() (*cocoa.Result, error))

// alwaysVolatile is process bookkeeping no result depends on: runner and
// service counters, sync.Pool hit rates (GC-scheduled), and the sim arena
// and scratch recycling counts, which depend on what ran earlier.
var alwaysVolatile = []string{"runner.", "serve.", "mac.pool_", "sim.arena_chunks", "cocoa.scratch_reuse"}

// equivTol is the eager agreement bound, relative above magnitude 1.
const equivTol = 1e-9

// equivOpts is the registry axis: the quick scale with the localizer
// worker count pinned.
func equivOpts(workers int) Options {
	return Options{
		Seed:               1,
		DurationS:          300,
		NumRobots:          12,
		CalibrationSamples: 60000,
		GridCellM:          4,
		UpdateWorkers:      workers,
		Parallelism:        1,
	}
}

// variantConfigs is the config axis: the golden quick families, on the
// serial localizer path (UpdateWorkers 1), plus the structural variants
// whose state differs, on 8 concurrent workers — the particle and EKF
// backends, the secondary-beacon/terrain/clock-drift extensions, a hostile
// channel with reporting on, half the team crashing (constant medium
// Detach/re-Attach churn) and the swarm-scale MAC config. Each is cut to
// 120 s sampled every 10 s, so the resume row interrupts it at 12 ticks.
func variantConfigs() map[string]cocoa.Config {
	cfgs := QuickFamilies()
	base := cfgs["energy"] // T = 50 s: three beacon windows in 120 s
	base.UpdateWorkers = 8
	with := func(name string, edit func(c *cocoa.Config)) {
		c := base
		edit(&c)
		cfgs[name] = c
	}
	with("particle", func(c *cocoa.Config) { c.Localizer, c.Particles = cocoa.LocalizerParticle, 300 })
	with("ekf", func(c *cocoa.Config) { c.Localizer = cocoa.LocalizerEKF })
	with("secondary+terrain+drift", func(c *cocoa.Config) {
		c.SecondaryBeacons, c.TerrainAmplitude, c.ClockDriftSigmaS = true, 1.5, 0.2
	})
	with("hostile", func(c *cocoa.Config) {
		c.SecondaryBeacons, c.EnableReporting = true, true
		c.Faults.GE = faults.Bursty(0.5, faults.DefaultBurstFrames)
		c.Faults.CrashFraction, c.Faults.CrashMeanDownS, c.Faults.OutlierProb = 0.25, 40, 0.05
	})
	with("high-crash", func(c *cocoa.Config) {
		c.Faults.GE = faults.Bursty(0.2, faults.DefaultBurstFrames)
		c.Faults.CrashFraction, c.Faults.CrashMeanDownS = 0.5, float64(c.BeaconPeriodS)
	})
	with("scale", func(c *cocoa.Config) { *c = SwarmConfig(40); c.UpdateWorkers = 8 })
	for name, c := range cfgs {
		c.DurationS, c.SampleIntervalS = 120, 10
		c.UpdateWorkers = max(c.UpdateWorkers, 1) // the quick families leave it 0
		cfgs[name] = c
	}
	return cfgs
}

// TestVariantConfigsTickCount pins the interruption density: every config
// on the axis is cut to 120 s sampled every 10 s, so the resume row really
// does cut each run at 12 distinct ticks, not a degenerate few.
func TestVariantConfigsTickCount(t *testing.T) {
	for name, cfg := range variantConfigs() {
		if cfg.DurationS != 120 || cfg.SampleIntervalS != 10 {
			t.Errorf("%s: config not shrunk: duration=%v sample=%v", name, cfg.DurationS, cfg.SampleIntervalS)
		}
	}
}

// TestResultVariants runs the table. Registry subtests compare results
// only and run in parallel. Config subtests diff the process-global
// telemetry registry, so they run one at a time. Row and config order is
// map order, random on every run; make check runs the table under -race
// and make shuffle reruns it.
func TestResultVariants(t *testing.T) {
	defer telemetry.Default.SetEnabled(telemetry.Default.Enabled())
	var oracles sync.Map // subject → measurement
	oracle := func(t *testing.T, key string, run func() (any, error)) measurement {
		if m, ok := oracles.Load(key); ok {
			return m.(measurement)
		}
		m := measure(t, run)
		oracles.Store(key, m)
		return m
	}
	configs := variantConfigs()
	for row, v := range resultVariants {
		t.Run(row, func(t *testing.T) {
			for _, d := range Experiments() {
				if v.registry != nil {
					t.Run("registry/"+d.Name, func(t *testing.T) {
						t.Parallel()
						telemetry.Default.SetEnabled(false)
						for _, w := range []int{1, 8} {
							o := equivOpts(w)
							want := oracle(t, fmt.Sprintf("registry/%s/%d", d.Name, w), func() (any, error) {
								return d.Run(context.Background(), o)
							})
							ctx, vo := v.registry(context.Background(), o)
							got := measure(t, func() (any, error) { return d.Run(ctx, vo) })
							v.compare(t, fmt.Sprint("workers=", w), want, got)
						}
					})
				}
			}
			for name, cfg := range configs {
				if v.config != nil {
					t.Run("config/"+name, func(t *testing.T) {
						telemetry.Default.SetEnabled(true)
						want := oracle(t, "config/"+name, func() (any, error) { return cocoa.Run(cfg) })
						v.config(t, cfg, func(t *testing.T, label string, run func() (*cocoa.Result, error)) {
							t.Helper()
							v.compare(t, label, want, measure(t, func() (any, error) { return run() }))
						})
					})
				}
			}
		})
	}
}

// underReference selects the reference paths for a whole registry sweep.
func underReference(ref cocoa.Reference) func(context.Context, Options) (context.Context, Options) {
	return func(ctx context.Context, o Options) (context.Context, Options) {
		return cocoa.ReferenceContext(ctx, ref), o
	}
}

// runReference runs a config on the reference paths.
func runReference(ref cocoa.Reference) func(*testing.T, cocoa.Config, checkFunc) {
	return once(func(cfg cocoa.Config) (*cocoa.Result, error) {
		res, err := cocoa.Run(cocoa.WithReference(cfg, ref))
		if err == nil {
			res.Config = cocoa.WithReference(res.Config, cocoa.Reference{}) // archived with the selection
		}
		return res, err
	})
}

// once adapts a variant that runs a config exactly once.
func once(run func(cocoa.Config) (*cocoa.Result, error)) func(*testing.T, cocoa.Config, checkFunc) {
	return func(t *testing.T, cfg cocoa.Config, check checkFunc) {
		check(t, "", func() (*cocoa.Result, error) { return run(cfg) })
	}
}

// runWorkers reruns the config at every other localizer pool size: serial,
// bounded, wide and the GOMAXPROCS-sized default (0).
func runWorkers(t *testing.T, cfg cocoa.Config, check checkFunc) {
	for _, w := range []int{1, 3, 8, 0} {
		if w == cfg.UpdateWorkers {
			continue
		}
		check(t, fmt.Sprint("UpdateWorkers=", w), func() (*cocoa.Result, error) {
			c := cfg
			c.UpdateWorkers = w
			res, err := cocoa.Run(c)
			if err == nil {
				res.Config.UpdateWorkers = cfg.UpdateWorkers // archived as configured
			}
			return res, err
		})
	}
}

// runObserved attaches a progress gauge and a trace recorder. Besides
// leaving the Result alone (handles scrubbed from Result.Config), the run
// must publish its full progress and record a balanced trace.
func runObserved(t *testing.T, cfg cocoa.Config, check checkFunc) {
	progress, trace := &obs.Progress{}, obs.NewTrace()
	cfg.Progress, cfg.Trace = progress, trace
	check(t, "", func() (*cocoa.Result, error) { return cocoa.Run(cfg) })
	if tick, total := progress.Ticks(); total == 0 || tick != total {
		t.Errorf("progress ended at %d/%d, want total/total", tick, total)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if events, err := obs.ReadTrace(&buf); err != nil || len(events) == 0 {
		t.Errorf("trace read back %d events, err %v; want a balanced, non-empty trace", len(events), err)
	}
}

// runScratch runs the config on a scratch warmed by a mismatched config (a
// smaller team on a coarser grid, so recycled streams, grids and buffers
// must be overwritten, not inherited), then again after releasing the
// first Result, which recycles its buffers into the second run.
func runScratch(t *testing.T, cfg cocoa.Config, check checkFunc) {
	ctx := context.Background()
	warm := QuickFamilies()["cocoa"]
	warm.NumRobots, warm.NumEquipped, warm.DurationS, warm.GridCellM, warm.Seed = 8, 4, 100, 8, 99
	sc := cocoa.NewScratch()
	if _, err := cocoa.RunScratch(ctx, warm, sc); err != nil {
		t.Fatal(err)
	}
	var first *cocoa.Result
	check(t, "warm from a mismatched config", func() (res *cocoa.Result, err error) {
		first, err = cocoa.RunScratch(ctx, cfg, sc)
		return first, err
	})
	sc.ReleaseResult(first)
	check(t, "after ReleaseResult", func() (*cocoa.Result, error) { return cocoa.RunScratch(ctx, cfg, sc) })
}

// runResumed captures a wire-encoded snapshot at every sampling tick — the
// capture pass itself must not perturb the run — then resumes from each
// one, modelling a process that died right after persisting it. It does so
// on the serial and on an 8-wide localizer pool, since a snapshot must
// carry no state that depends on the pool.
func runResumed(t *testing.T, cfg cocoa.Config, check checkFunc) {
	for _, w := range []int{1, 8} {
		t.Run(fmt.Sprint("workers=", w), func(t *testing.T) {
			c := cfg
			c.UpdateWorkers = w
			archived := func(res *cocoa.Result, err error) (*cocoa.Result, error) {
				if err == nil {
					res.Config.UpdateWorkers = cfg.UpdateWorkers // archived as configured
				}
				return res, err
			}
			var wires [][]byte
			check(t, "capture", func() (*cocoa.Result, error) {
				team, err := cocoa.NewTeam(c)
				if err != nil {
					return nil, err
				}
				team.OnCheckpoint(1, func(s *checkpoint.Snapshot) error {
					b, err := checkpoint.Marshal(s)
					wires = append(wires, b)
					return err
				})
				return archived(team.Run())
			})
			if want := int(c.DurationS / c.SampleIntervalS); len(wires) != want {
				t.Fatalf("captured %d snapshots, want one per sampling tick (%d)", len(wires), want)
			}
			for _, wire := range wires {
				snap, err := checkpoint.Unmarshal(wire)
				if err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprint("resume from tick ", snap.TickIndex), func() (*cocoa.Result, error) {
					return archived(cocoa.ResumeFrom(context.Background(), snap))
				})
			}
		})
	}
}

// measurement is one run as the table compares it: the result, its
// canonical JSON, and its telemetry delta (counter values and histograms
// by name; spans measure wall time and gauges are levels).
type measurement struct {
	value any
	json  []byte
	tel   map[string]any
}

func measure(t *testing.T, run func() (any, error)) measurement {
	t.Helper()
	before := telemetry.Default.Snapshot()
	v, err := run()
	if err != nil {
		t.Fatal(err)
	}
	d := telemetry.Diff(before, telemetry.Default.Snapshot())
	m := measurement{value: v, tel: map[string]any{}}
	if m.json, err = json.Marshal(v); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Counters {
		m.tel[c.Name] = c.Value
	}
	for _, h := range d.Histograms {
		m.tel[h.Name] = h
	}
	return m
}

// compare applies the row's agreement and telemetry contract to one run.
func (v resultVariant) compare(t *testing.T, label string, want, got measurement) {
	t.Helper()
	switch _, single := want.value.(*cocoa.Result); {
	case v.within1e9:
		if err := numericallyAgree(want.json, got.json); err != nil {
			t.Errorf("%s: results diverge: %v", label, err)
		}
	case !bytes.Equal(want.json, got.json):
		t.Errorf("%s: result bytes differ\noracle:  %.400s\nvariant: %.400s", label, want.json, got.json)
	case single && !reflect.DeepEqual(want.value, got.value):
		t.Errorf("%s: Results marshal identically but differ as structs (a handle left in Result.Config?)", label)
	}
	if !v.telemetry {
		return
	}
	if w, g := v.deterministic(want.tel), v.deterministic(got.tel); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: telemetry differs\noracle:  %v\nvariant: %v", label, w, g)
	}
}

// deterministic drops the instruments the row treats as volatile.
func (v resultVariant) deterministic(tel map[string]any) map[string]any {
	volatile := append(slices.Clip(v.volatile), alwaysVolatile...)
	out := map[string]any{}
	for name, x := range tel {
		if !slices.ContainsFunc(volatile, func(p string) bool { return strings.HasPrefix(name, p) }) {
			out[name] = x
		}
	}
	return out
}

// numericallyAgree walks both results' JSON token streams in lockstep:
// numbers must agree within equivTol (relative above magnitude 1), every
// other token exactly.
func numericallyAgree(prod, variant []byte) error {
	a, b := json.NewDecoder(bytes.NewReader(prod)), json.NewDecoder(bytes.NewReader(variant))
	var key any // the last string token, usually the enclosing field name
	for {
		x, errA := a.Token()
		y, errB := b.Token()
		if errA == io.EOF && errB == io.EOF {
			return nil
		}
		if errA != nil || errB != nil {
			return fmt.Errorf("after %v: %v, %v", key, errA, errB)
		}
		xf, xNum := x.(float64)
		yf, yNum := y.(float64)
		if xNum && yNum {
			if d, tol := math.Abs(xf-yf), equivTol*math.Max(1, math.Max(math.Abs(xf), math.Abs(yf))); !(d <= tol) {
				return fmt.Errorf("at %v: %v vs %v differ by %v (tol %v)", key, xf, yf, d, tol)
			}
		} else if x != y {
			return fmt.Errorf("at %v: %v != %v", key, x, y)
		}
		if _, ok := x.(string); ok {
			key = x
		}
	}
}
