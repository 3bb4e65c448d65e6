package bayes

import (
	"testing"

	"cocoa/internal/caltable"
	"cocoa/internal/geom"
	"cocoa/internal/sim"
)

// BenchmarkApplyBeacon measures the per-beacon grid update — the hot path
// of the whole simulation (10,000 cells at the paper's 2 m resolution).
func BenchmarkApplyBeacon(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	// Box the value PDF once: callers hold DistPDF interfaces, so the
	// conversion is not part of ApplyBeacon's steady-state cost.
	var pdf DistanceDensity = caltable.GaussianPDF{Mu: 40, Sigma: 5}
	pos := geom.Vec2{X: 70, Y: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyBeacon(pos, pdf)
		if i%16 == 15 {
			g.Reset()
		}
	}
}

// BenchmarkApplyBeaconTabulated is the production configuration: the same
// Gaussian, but routed through the radial lookup table as calibrated
// tables hand it out.
func BenchmarkApplyBeaconTabulated(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	pdf, err := caltable.Tabulate(caltable.GaussianPDF{Mu: 40, Sigma: 5}, constraintFloor, 0.0625, 220)
	if err != nil {
		b.Fatal(err)
	}
	pos := geom.Vec2{X: 70, Y: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyBeacon(pos, pdf)
		if i%16 == 15 {
			g.Reset()
		}
	}
}

// BenchmarkApplyBeaconEmpirical exercises the far-regime histogram path,
// which before the LUT had no annulus bound and scanned the whole grid.
func BenchmarkApplyBeaconEmpirical(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	bins := make([]float64, 111)
	for i := 25; i < 60; i++ {
		bins[i] = 0.012
	}
	pdf, err := caltable.Tabulate(&caltable.EmpiricalPDF{BinWidth: 2, Bins: bins}, constraintFloor, 0.0625, 220)
	if err != nil {
		b.Fatal(err)
	}
	pos := geom.Vec2{X: 70, Y: 120}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ApplyBeacon(pos, pdf)
		if i%16 == 15 {
			g.Reset()
		}
	}
}

// BenchmarkApplyBeaconCalibrated is the production mix of the paper
// replication: a 200 m area at 2 m cells, and the far-regime histogram
// bins of the calibration table a default-configured run uses, whose
// supports span roughly 40-220 m. Sixteen beacons at fixed positions cycle
// through those bins, and the grid resets before each cycle. cells/op is
// the mean number of cells one beacon multiplies, counted outside the
// timer, so ns/op divided by cells/op is the cost per touched cell.
func BenchmarkApplyBeaconCalibrated(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	var far []DistanceDensity
	for _, pdf := range calibratedPDFs(b) {
		if lt, ok := pdf.(radialTable); ok {
			if _, _, _, nearest := lt.RadialTable(); nearest {
				far = append(far, pdf)
			}
		}
	}
	if len(far) == 0 {
		b.Fatal("calibration table has no histogram bins")
	}
	type beacon struct {
		pos geom.Vec2
		pdf DistanceDensity
	}
	const cycle = 16
	rng := sim.NewRNG(1).Stream("bench-calibrated")
	var beacons []beacon
	cells := 0
	for i := 0; i < cycle; i++ {
		bc := beacon{
			pos: geom.Vec2{X: rng.Uniform(0, 200), Y: rng.Uniform(0, 200)},
			pdf: far[i*len(far)/cycle],
		}
		beacons = append(beacons, bc)
		g.Reset()
		u := g.p[0]
		g.ApplyBeacon(bc.pos, bc.pdf)
		for _, p := range g.p {
			if p != u {
				cells++
			}
		}
	}
	g.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc := beacons[i%cycle]
		g.ApplyBeacon(bc.pos, bc.pdf)
		if i%cycle == cycle-1 {
			g.Reset()
		}
	}
	b.ReportMetric(float64(cells)/cycle, "cells/op")
}

func BenchmarkEstimate(b *testing.B) {
	g, err := NewGrid(geom.Square(200), 2)
	if err != nil {
		b.Fatal(err)
	}
	g.ApplyBeacon(geom.Vec2{X: 70, Y: 120}, caltable.GaussianPDF{Mu: 40, Sigma: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Estimate()
	}
}

// BenchmarkGridStatsReadout isolates what the incremental accumulators buy:
// a per-sample readout (estimate + entropy, the sampling tick's read path)
// against a 100x100-cell grid. Incremental reads the running sums in O(1)
// between re-sum backstops; eager pays the full-grid scan every time.
func BenchmarkGridStatsReadout(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    StatsMode
	}{{"incremental", StatsIncremental}, {"eager", StatsEager}} {
		b.Run(mode.name, func(b *testing.B) {
			g, err := NewGrid(geom.Square(200), 2)
			if err != nil {
				b.Fatal(err)
			}
			g.SetStatsMode(mode.m)
			g.ApplyBeacon(geom.Vec2{X: 70, Y: 120}, caltable.GaussianPDF{Mu: 40, Sigma: 5})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Estimate()
				_ = g.Entropy()
			}
		})
	}
}
