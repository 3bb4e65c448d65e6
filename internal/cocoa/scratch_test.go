package cocoa

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"cocoa/internal/bayes"
	"cocoa/internal/mac"
)

// A scratch-built run on the eager grid-statistics path must be
// byte-identical to a fresh eager run, also when the scratch is warm from a
// mismatched config and again after the first Result is released. The
// scratch row of the result-variants table (internal/scenario) covers the
// production paths; it compares against a production oracle, which an
// eager run only matches within 1e-9.
func TestScratchByteIdentity(t *testing.T) {
	warm := testConfig()
	warm.NumRobots, warm.NumEquipped, warm.DurationS, warm.Seed = 8, 4, 100, 99
	warm.GridCellM = 8 // grid geometry mismatch: forces the allocate path next run

	t.Run("grid-eager", func(t *testing.T) {
		cfg := testConfig()
		cfg.DurationS = 150
		cfg = WithReference(cfg, Reference{EagerStats: true})
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewScratch()
		if _, err := RunScratch(context.Background(), warm, sc); err != nil {
			t.Fatal(err)
		}
		got, err := RunScratch(context.Background(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("scratch-built result differs from fresh run")
		}
		sc.ReleaseResult(got)
		again, err := RunScratch(context.Background(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, again) {
			t.Errorf("second scratch reuse diverged from fresh run")
		}
	})
}

// A released Result's buffers must actually be recycled: the next run on
// the scratch writes into the same backing arrays.
func TestScratchRecyclesResultBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.DurationS = 100
	sc := NewScratch()
	res, err := RunScratch(context.Background(), cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) == 0 || len(res.PerRobot) == 0 || len(res.PerRobot[0]) == 0 {
		t.Fatal("run produced no samples")
	}
	times0 := &res.Times[0]
	per0 := &res.PerRobot[0][0]
	sc.ReleaseResult(res)
	res2, err := RunScratch(context.Background(), cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Fatal("released Result not recycled")
	}
	if &res2.Times[0] != times0 || &res2.PerRobot[0][0] != per0 {
		t.Error("recycled Result reallocated its buffers")
	}
}

// allocBytesPerRun measures the average heap bytes one call of f allocates.
// TotalAlloc is monotonic (GC never decreases it), so the measurement is
// stable without disabling collection.
func allocBytesPerRun(f func()) float64 {
	const runs = 5
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// The scratch's reason to exist: replications through a warm scratch must
// allocate less than fresh runs — fewer objects, and a small fraction of
// the bytes (the savings concentrate in few-but-large allocations: belief
// grids and the ~5 KB lagged-Fibonacci state vector behind every stream).
// The pins are ratios, not absolute counts, so they stay meaningful as the
// engine evolves.
func TestScratchReuseAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.DurationS = 100
	sc := NewScratch()
	// Warm everything the comparison should not see: the process-wide
	// calibration cache, the scratch's pools, and the runtime itself.
	if _, err := RunScratch(context.Background(), cfg, sc); err != nil {
		t.Fatal(err)
	}

	freshAllocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	reusedAllocs := testing.AllocsPerRun(3, func() {
		res, err := RunScratch(context.Background(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.ReleaseResult(res)
	})
	if reusedAllocs >= freshAllocs {
		t.Errorf("scratch run allocates %.0f objects, fresh %.0f: reuse saves nothing", reusedAllocs, freshAllocs)
	}

	freshBytes := allocBytesPerRun(func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	reusedBytes := allocBytesPerRun(func() {
		res, err := RunScratch(context.Background(), cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.ReleaseResult(res)
	})
	if reusedBytes > freshBytes/3 {
		t.Errorf("scratch run allocates %.0f B, fresh %.0f B: want at least a 3x drop",
			reusedBytes, freshBytes)
	}
}

// The Reference hook must reach the MAC and the grids whether it arrives on
// the config (WithReference) or on the context (ReferenceContext).
func TestReferenceSelectsReferencePaths(t *testing.T) {
	cfg := testConfig()
	cfg.DurationS = 20
	for _, ref := range []Reference{{}, {ScanIndex: true}, {EagerStats: true}} {
		team, err := NewTeam(WithReference(cfg, ref))
		if err != nil {
			t.Fatal(err)
		}
		if scan := team.med.Config().NeighborIndex == mac.IndexScan; scan != ref.ScanIndex {
			t.Errorf("%+v: MAC scan index = %v", ref, scan)
		}
		for _, r := range team.robots {
			if g, ok := r.loc.(*bayes.Grid); ok && (g.StatsModeOf() == bayes.StatsEager) != ref.EagerStats {
				t.Errorf("%+v: robot %d grid stats mode %v", ref, r.id, g.StatsModeOf())
			}
		}
		res, err := RunContext(ReferenceContext(context.Background(), ref), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Config.ref != ref {
			t.Errorf("context reference %+v reached the run as %+v", ref, res.Config.ref)
		}
	}
}
