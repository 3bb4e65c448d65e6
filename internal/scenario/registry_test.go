package scenario

import (
	"context"
	"testing"

	"cocoa/internal/obs"
)

func TestRegistryWellFormed(t *testing.T) {
	exps := Experiments()
	if len(exps) == 0 {
		t.Fatal("empty registry")
	}
	names := make(map[string]bool, len(exps))
	for _, d := range exps {
		if d.Name == "" || d.Flag == "" || d.Title == "" {
			t.Errorf("descriptor %+v has empty field", d)
		}
		if d.Run == nil {
			t.Errorf("descriptor %q has nil Run", d.Name)
		}
		if names[d.Name] {
			t.Errorf("duplicate experiment name %q", d.Name)
		}
		names[d.Name] = true
	}
	// The suite must cover every figure of the paper's evaluation.
	for _, want := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}

func TestExperimentsReturnsCopy(t *testing.T) {
	a := Experiments()
	a[0].Name = "clobbered"
	if b := Experiments(); b[0].Name == "clobbered" {
		t.Error("Experiments exposes the registry's backing array")
	}
}

// The registry's Run must execute the underlying runner; fig1 is the
// cheapest entry (calibration only, no simulation).
func TestRegistryRunFig1(t *testing.T) {
	for _, d := range Experiments() {
		if d.Name != "fig1" {
			continue
		}
		v, err := d.Run(context.Background(), Options{Seed: 7, CalibrationSamples: 60000})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(*Fig1Result); !ok {
			t.Fatalf("fig1 descriptor returned %T, want *Fig1Result", v)
		}
		return
	}
	t.Fatal("fig1 not registered")
}

// A sweep publishes its position through the gauge: the finished
// fan-out reads done == total, and its runs published their ticks.
func TestSweepProgressGauge(t *testing.T) {
	opts := fastOpts()
	opts.Parallelism = 4
	opts.Gauge = &obs.Progress{}
	if _, err := RunFailureInjection(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if done, total := opts.Gauge.Run(); done != 3 || total != 3 {
		t.Errorf("gauge ends at %d/%d runs, want 3/3", done, total)
	}
	if _, ticks := opts.Gauge.Ticks(); ticks == 0 {
		t.Error("no run published its tick total")
	}
}

// RunBaselineCoopPos fans its three systems out like any sweep, so a
// cocoad baseline job shows run progress and its CoCoA runs show ticks.
func TestBaselinePublishesProgress(t *testing.T) {
	opts := fastOpts()
	opts.Gauge = &obs.Progress{}
	if _, err := RunBaselineCoopPos(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if done, total := opts.Gauge.Run(); done != 3 || total != 3 {
		t.Errorf("gauge ends at %d/%d runs, want 3/3", done, total)
	}
	if _, ticks := opts.Gauge.Ticks(); ticks == 0 {
		t.Error("baseline runs published no tick total")
	}
}
