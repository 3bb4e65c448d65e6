package scenario

import (
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/telemetry"
)

func TestSwarmConfigShape(t *testing.T) {
	for _, n := range ScaleSizes {
		cfg := SwarmConfig(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("SwarmConfig(%d) invalid: %v", n, err)
		}
		if cfg.NumRobots != n || cfg.NumEquipped != max(1, n/2) {
			t.Errorf("SwarmConfig(%d): robots %d equipped %d", n, cfg.NumRobots, cfg.NumEquipped)
		}
		// Constant density: area per robot matches the paper's 50-robot
		// 200x200 baseline at every size.
		per := cfg.Area.Width() * cfg.Area.Height() / float64(n)
		if per < 799 || per > 801 {
			t.Errorf("SwarmConfig(%d): %.1f m^2 per robot, want 800", n, per)
		}
	}
}

// visitStats runs cfg with telemetry on and returns the MAC's receiver
// visits and sent-frame counters — both sim-deterministic.
func visitStats(t *testing.T, cfg cocoa.Config) (visits, sent int64) {
	t.Helper()
	wasEnabled := telemetry.Default.Enabled()
	defer telemetry.Default.SetEnabled(wasEnabled)
	telemetry.Default.SetEnabled(true)
	before := telemetry.Default.Snapshot()
	if _, err := cocoa.Run(cfg); err != nil {
		t.Fatal(err)
	}
	d := telemetry.Diff(before, telemetry.Default.Snapshot())
	for _, c := range d.Counters {
		switch c.Name {
		case "mac.receiver_visits":
			visits = c.Value
		case "mac.sent":
			sent = c.Value
		}
	}
	if sent == 0 {
		t.Fatal("run sent no frames")
	}
	return visits, sent
}

// TestIndexPruningFactor is the structural counterpart of BenchmarkSwarm:
// independent of wall clock, the grid must visit at least 5x fewer
// receivers per transmitted frame than the O(n) scan at swarm scale. The
// counters are sim-deterministic, so this is a hard floor, not a timing
// flake.
func TestIndexPruningFactor(t *testing.T) {
	base := SwarmConfig(1000)
	base.DurationS = 40
	base.Calibration.Samples = 60000

	run := func(ref cocoa.Reference) float64 {
		visits, sent := visitStats(t, cocoa.WithReference(base, ref))
		return float64(visits) / float64(sent)
	}
	grid, scan := run(cocoa.Reference{}), run(cocoa.Reference{ScanIndex: true})
	t.Logf("visits per frame: grid %.1f, scan %.1f (%.1fx)", grid, scan, scan/grid)
	if scan < 5*grid {
		t.Errorf("grid visits %.1f receivers per frame, scan %.1f: pruning factor %.2f < 5",
			grid, scan, scan/grid)
	}
}

// TestCrashedSwarmVisitsDrop is the Medium.Detach regression test: before
// the crash path detached stations, powered-off robots stayed in the scan
// order and were visited on every frame forever. With half the team
// crashed permanently mid-run, the per-frame visit count must drop well
// below the healthy baseline — under both index settings.
func TestCrashedSwarmVisitsDrop(t *testing.T) {
	for _, index := range []string{"grid", "scan"} {
		t.Run(index, func(t *testing.T) {
			base := cocoa.WithReference(QuickFamilies()["cocoa"], cocoa.Reference{ScanIndex: index == "scan"})

			perFrame := func(crash float64) float64 {
				cfg := base
				cfg.Faults.CrashFraction = crash
				cfg.Faults.CrashMeanDownS = 0 // crashed robots never recover
				visits, sent := visitStats(t, cfg)
				return float64(visits) / float64(sent)
			}
			healthy := perFrame(0)
			crashed := perFrame(0.5)
			t.Logf("visits per frame: healthy %.1f, half-crashed %.1f", healthy, crashed)
			// Crash times are uniform over the middle of the run, so the
			// run-wide average lands well under the healthy rate but above
			// the fully compacted one (~0.86x here). Without Detach the
			// ratio is exactly 1.0 — every powered-off radio would still be
			// scanned every frame — so 0.93 separates the two cleanly.
			if crashed > 0.93*healthy {
				t.Errorf("half-crashed swarm still visits %.1f receivers per frame (healthy %.1f): Detach compaction not effective",
					crashed, healthy)
			}
		})
	}
}
