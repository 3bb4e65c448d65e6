package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/telemetry"
)

// Two performance devices keep their reference implementations alive as
// equivalence oracles: the MAC's spatial neighbor index (DESIGN.md §12)
// must produce the exact bytes of the O(n) scan, and the Bayesian grid's
// incremental statistics accumulators (DESIGN.md §13) must agree with the
// eager full-grid scans within 1e-9 — the accumulators round differently
// than a fresh scan, so that contract is numeric closeness, not bytes.
// resultVariants is the table of such variants; each runs the whole
// registry at UpdateWorkers 1 and 8, and make check runs it under -race,
// which also exercises the index and accumulators against concurrent grid
// workers.

// equivTol is the incremental-vs-eager agreement bound, applied relative
// to the value magnitude.
const equivTol = 1e-9

// resultVariant is one variant that must not change results: the reference
// paths it selects and how its marshaled results must agree with the
// production paths'.
type resultVariant struct {
	ref   cocoa.Reference
	agree func(prod, variant []byte) error
}

var resultVariants = map[string]resultVariant{
	"scan":  {cocoa.Reference{ScanIndex: true}, sameBytes},
	"eager": {cocoa.Reference{EagerStats: true}, numericallyAgree},
}

// equivOpts is the quick scale with the localizer worker count pinned.
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

// checkRegistryVariant runs every registered experiment on the production
// paths and on the named variant, at UpdateWorkers 1 and 8, and requires
// the variant's agreement for each pair of JSON-marshaled results.
func checkRegistryVariant(t *testing.T, name string) {
	v := resultVariants[name]
	for _, d := range Experiments() {
		t.Run(d.Name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				marshal := func(ctx context.Context) []byte {
					res, err := d.Run(ctx, equivOpts(workers))
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, workers, err)
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				prod := marshal(context.Background())
				variant := marshal(cocoa.ReferenceContext(context.Background(), v.ref))
				if err := v.agree(prod, variant); err != nil {
					t.Errorf("workers=%d: %s results diverge: %v", workers, name, err)
				}
			}
		})
	}
}

func TestIndexEquivalenceRegistry(t *testing.T)     { checkRegistryVariant(t, "scan") }
func TestGridStatsEquivalenceRegistry(t *testing.T) { checkRegistryVariant(t, "eager") }

func sameBytes(prod, variant []byte) error {
	if !bytes.Equal(prod, variant) {
		return fmt.Errorf("bytes differ\nproduction: %.400s\nvariant:    %.400s", prod, variant)
	}
	return nil
}

// numericallyAgree decodes both results and requires numbers to agree
// within equivTol (relative above magnitude 1) and everything else to
// match exactly.
func numericallyAgree(prod, variant []byte) error {
	var a, b any
	if err := json.Unmarshal(prod, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(variant, &b); err != nil {
		return err
	}
	return numericallyClose("result", a, b)
}

// numericallyClose walks two decoded JSON values in lockstep.
func numericallyClose(path string, a, b any) error {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: shape mismatch", path)
		}
		for k, x := range av {
			y, ok := bv[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing in variant result", path, k)
			}
			if err := numericallyClose(path+"."+k, x, y); err != nil {
				return err
			}
		}
		return nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: length mismatch", path)
		}
		for i := range av {
			if err := numericallyClose(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); err != nil {
				return err
			}
		}
		return nil
	case float64:
		bvf, ok := b.(float64)
		if !ok {
			return fmt.Errorf("%s: type mismatch", path)
		}
		scale := math.Max(1, math.Max(math.Abs(av), math.Abs(bvf)))
		if d := math.Abs(av - bvf); !(d <= equivTol*scale) {
			return fmt.Errorf("%s: %v vs %v differ by %v (tol %v)", path, av, bvf, d, equivTol*scale)
		}
		return nil
	default:
		if a != b {
			return fmt.Errorf("%s: %v != %v", path, a, b)
		}
		return nil
	}
}

// volatileCounter reports instruments that legitimately differ between the
// two index settings or across scheduling: the index's own instruments,
// per-receiver visit counts (pruning is the index's whole point), frame
// pool hit rates (sync.Pool is GC-scheduling dependent), and process-level
// runner/arena bookkeeping. Everything else is simulation-deterministic
// and must match exactly.
func volatileCounter(name string) bool {
	for _, prefix := range []string{"mac.index_", "mac.pool_", "runner.", "serve."} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return name == "mac.receiver_visits" || name == "sim.arena_chunks"
}

// TestIndexEquivalenceTelemetry compares full telemetry snapshots of a
// fault-injected run (crashes exercise Detach/re-Attach compaction) under
// both index settings: every sim-deterministic counter must agree.
func TestIndexEquivalenceTelemetry(t *testing.T) {
	wasEnabled := telemetry.Default.Enabled()
	defer telemetry.Default.SetEnabled(wasEnabled)
	telemetry.Default.SetEnabled(true)

	snap := func(ref cocoa.Reference) map[string]int64 {
		before := telemetry.Default.Snapshot()
		if _, err := cocoa.Run(cocoa.WithReference(QuickFamilies()["faults"], ref)); err != nil {
			t.Fatalf("%+v: %v", ref, err)
		}
		d := telemetry.Diff(before, telemetry.Default.Snapshot())
		out := map[string]int64{}
		for _, c := range d.Counters {
			if !volatileCounter(c.Name) {
				out[c.Name] = c.Value
			}
		}
		return out
	}

	grid := snap(cocoa.Reference{})
	scan := snap(resultVariants["scan"].ref)
	if !reflect.DeepEqual(grid, scan) {
		t.Errorf("sim-deterministic counters differ\ngrid: %v\nscan: %v", grid, scan)
	}
}

// TestIndexEquivalenceHighCrash is the adversarial compaction case: half
// the team crashing and recovering churns Detach/re-Attach constantly, the
// regime where a stale grid bucket or a mis-ordered re-insertion would
// surface. The full Result must still be byte-identical.
func TestIndexEquivalenceHighCrash(t *testing.T) {
	cfg := QuickFamilies()["faults"]
	cfg.Faults.CrashFraction = 0.5
	cfg.Faults.CrashMeanDownS = float64(cfg.BeaconPeriodS)
	run := func(ref cocoa.Reference) []byte {
		res, err := cocoa.Run(cocoa.WithReference(cfg, ref))
		if err != nil {
			t.Fatalf("%+v: %v", ref, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := sameBytes(run(cocoa.Reference{}), run(resultVariants["scan"].ref)); err != nil {
		t.Errorf("high-crash run differs between grid and scan: %v", err)
	}
}
