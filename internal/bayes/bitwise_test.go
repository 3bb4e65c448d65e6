package bayes

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"cocoa/internal/caltable"
	"cocoa/internal/checkpoint"
	"cocoa/internal/geom"
	"cocoa/internal/radio"
	"cocoa/internal/sim"
)

// applyBeaconPerCell is the per-cell-checked cell loop ApplyBeacon ran
// before its row kernels: every column of the conservative row segments
// re-tests the support predicate and the table range itself, and the sums
// accumulate in one pass in ascending column order. ApplyBeacon must match
// it bit for bit — cells, mass, and the moment accumulators — so any
// reordered sum or mis-trimmed interval shows up here, not only in the
// scenario goldens. Telemetry is left out; it does not touch the belief.
func (g *Grid) applyBeaconPerCell(beaconPos geom.Vec2, pdf DistanceDensity) {
	var (
		dens    []float64
		r0, r1  float64
		invStep float64
		nearest bool
		haveLUT bool
	)
	rInner, rOuter := math.Inf(-1), math.Inf(1)
	if lt, ok := pdf.(radialTable); ok && lt.TableFloor() <= constraintFloor {
		var step float64
		dens, r0, step, nearest = lt.RadialTable()
		rInner, rOuter = lt.Support()
		r1 = rOuter
		invStep = 1 / step
		haveLUT = true
	} else if m, ok := pdf.(gaussianMoments); ok && m.IsGaussian() {
		// Beyond mu +/- 6 sigma a Gaussian density is below the floor.
		rInner = m.Mean() - 6*m.Std()
		rOuter = m.Mean() + 6*m.Std()
	}
	rInner2 := rInner * rInner
	if rInner < 0 {
		rInner2 = -1 // the inner disk is empty
	}
	rOuter2 := rOuter * rOuter

	bx, by := beaconPos.X, beaconPos.Y
	minX := g.area.Min.X
	bounded := !math.IsInf(rOuter, 1)
	// removed/added track the mass delta exactly as before the incremental
	// statistics existed (the mass arithmetic is pinned bitwise by the
	// eager-stats equivalence); sumDX/sumDY accumulate the first-moment
	// deltas per row so the moment accumulators stay O(touched cells).
	var removed, added, sumDX, sumDY float64
	for iy := 0; iy < g.ny; iy++ {
		dy := g.cy[iy] - by
		dy2 := dy * dy
		if dy2 > rOuter2 {
			continue // the whole row is outside the annulus
		}
		var rowD, rowDX float64
		lo, hi := 0, g.nx
		if bounded {
			// Conservative (+/- one cell) column interval where the row
			// can intersect the outer disk; the per-cell d² check below
			// stays authoritative.
			halfW := math.Sqrt(rOuter2 - dy2)
			lo = int((bx-halfW-minX)/g.cellSize) - 1
			hi = int((bx+halfW-minX)/g.cellSize) + 2
			if lo < 0 {
				lo = 0
			}
			if hi > g.nx {
				hi = g.nx
			}
		}
		// Inner-hole skip: where the row crosses the inner disk, the middle
		// columns satisfy |dx| < sqrt(rInner²-dy²) and would fail the d²
		// check below cell by cell. Conservative (±1 cell) integer bounds
		// excise that run; the per-cell check stays authoritative, so the
		// iteration set shrinks but the touched cells are identical.
		s1, s2 := hi, hi
		if rInner2 > 0 && dy2 < rInner2 {
			halfH := math.Sqrt(rInner2 - dy2)
			hLo := int((bx-halfH-minX)/g.cellSize-0.5) + 2
			hHi := int((bx+halfH-minX)/g.cellSize-0.5) - 1
			if hLo < lo {
				hLo = lo
			}
			if hHi > hi {
				hHi = hi
			}
			if hHi > hLo {
				s1, s2 = hLo, hHi
			}
		}
		row := g.p[iy*g.nx : (iy+1)*g.nx : (iy+1)*g.nx]
		for seg := 0; seg < 2; seg++ {
			start, end := lo, s1
			if seg == 1 {
				start, end = s2, hi
			}
			// The cell loop is specialized per density mode: the mode is
			// fixed for the whole call, and hoisting the dispatch out of
			// the innermost loop is worth a few percent of the whole
			// simulation. Each body inlines TabulatedPDF.Density
			// expression-for-expression (a density > floor multiplies the
			// cell, anything else leaves it untouched), so the three
			// variants and the Density-calling reference agree bitwise.
			switch {
			case haveLUT && nearest:
				for ix := start; ix < end; ix++ {
					dx := g.cx[ix] - bx
					d2 := dx*dx + dy2
					if d2 > rOuter2 || d2 < rInner2 {
						continue
					}
					d := math.Sqrt(d2)
					if d < r0 || d >= r1 {
						continue
					}
					j := int((d - r0) * invStep)
					if j >= len(dens) {
						j = len(dens) - 1
					}
					dv := dens[j]
					if !(dv > constraintFloor) { // negated so NaN densities also skip
						continue // ratio 1: multiplying would be a bitwise no-op
					}
					old := row[ix]
					nv := old * (dv * invConstraintFloor)
					row[ix] = nv
					removed += old
					added += nv
					dm := nv - old
					rowD += dm
					rowDX += dm * g.cx[ix]
				}
			case haveLUT:
				for ix := start; ix < end; ix++ {
					dx := g.cx[ix] - bx
					d2 := dx*dx + dy2
					if d2 > rOuter2 || d2 < rInner2 {
						continue
					}
					d := math.Sqrt(d2)
					if d < r0 || d >= r1 {
						continue
					}
					u := (d - r0) * invStep
					j := int(u)
					var dv float64
					if j >= len(dens)-1 {
						dv = dens[len(dens)-1]
					} else {
						dv = dens[j] + (u-float64(j))*(dens[j+1]-dens[j])
					}
					if !(dv > constraintFloor) {
						continue
					}
					old := row[ix]
					nv := old * (dv * invConstraintFloor)
					row[ix] = nv
					removed += old
					added += nv
					dm := nv - old
					rowD += dm
					rowDX += dm * g.cx[ix]
				}
			default:
				for ix := start; ix < end; ix++ {
					dx := g.cx[ix] - bx
					d2 := dx*dx + dy2
					if d2 > rOuter2 || d2 < rInner2 {
						continue
					}
					dv := pdf.Density(math.Sqrt(d2))
					if !(dv > constraintFloor) {
						continue
					}
					old := row[ix]
					nv := old * (dv * invConstraintFloor)
					row[ix] = nv
					removed += old
					added += nv
					dm := nv - old
					rowD += dm
					rowDX += dm * g.cx[ix]
				}
			}
		}
		sumDX += rowDX
		sumDY += rowD * g.cy[iy]
	}

	mass := g.mass - removed + added
	if mass <= 0 || math.IsNaN(mass) || math.IsInf(mass, 0) {
		// Numerical collapse: fall back to uniform rather than emit NaNs.
		// Reset restores the closed-form uniform accumulators too.
		g.Reset()
		g.beacons = 1
		return
	}
	g.mass = mass
	g.sumP = g.sumP - removed + added
	g.sumX += sumDX
	g.sumY += sumDY
	g.statsOps++
	g.plogpOK = false
	g.beacons++
	if mass > massRenormHigh || mass < massRenormLow {
		g.Renormalize()
	}
}

// stateDigest is the grid's HashState digest: every cell plus mass, sumP,
// sumX and sumY.
func stateDigest(g *Grid) uint64 {
	h := checkpoint.NewHasher()
	g.HashState(h)
	return h.Sum()
}

// firstBitDiff names the first field where two grids differ bitwise, or
// returns "" when their digests agree.
func firstBitDiff(got, want *Grid) string {
	if stateDigest(got) == stateDigest(want) {
		return ""
	}
	for i := range got.p {
		if math.Float64bits(got.p[i]) != math.Float64bits(want.p[i]) {
			return fmt.Sprintf("cell (%d,%d): %v, per-cell %v", i%got.nx, i/got.nx, got.p[i], want.p[i])
		}
	}
	return fmt.Sprintf("accumulators: mass %v sumP %v sumX %v sumY %v, per-cell mass %v sumP %v sumX %v sumY %v",
		got.mass, got.sumP, got.sumX, got.sumY, want.mass, want.sumP, want.sumX, want.sumY)
}

// innerRadius returns the inner support radius ApplyBeacon derives for pdf,
// or -1 when the support has no inner hole.
func innerRadius(pdf DistanceDensity) float64 {
	if lt, ok := pdf.(radialTable); ok && lt.TableFloor() <= constraintFloor {
		r, _ := lt.Support()
		return r
	}
	if m, ok := pdf.(gaussianMoments); ok && m.IsGaussian() {
		return m.Mean() - 6*m.Std()
	}
	return -1
}

// sortedTestPDFs returns the testPDFs shapes ordered by name, so a beacon
// sequence over them replays identically.
func sortedTestPDFs(tb testing.TB) []DistanceDensity {
	shapes := testPDFs(tb)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	pdfs := make([]DistanceDensity, len(names))
	for i, name := range names {
		pdfs[i] = shapes[name]
	}
	return pdfs
}

// calibratedPDFs returns every RSSI bin's PDF from the calibration table a
// default-configured run uses (the default radio model and calibration
// options at seed 1): Gaussian-regime bins tabulated for lerp, far-regime
// histogram bins tabulated nearest-sample.
func calibratedPDFs(tb testing.TB) []DistanceDensity {
	tb.Helper()
	table, err := caltable.Shared(radio.DefaultModel(), caltable.DefaultOptions(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi, ok := table.CalibratedRange()
	if !ok {
		tb.Fatal("calibration table has no bins")
	}
	var pdfs []DistanceDensity
	for rssi := lo; rssi <= hi; rssi++ {
		if pdf, ok := table.Lookup(float64(rssi)); ok {
			pdfs = append(pdfs, pdf)
		}
	}
	return pdfs
}

// beaconProbes returns the beacon positions the bitwise test applies for
// one PDF on grid g: random positions inside and outside the area, the
// beacon exactly on a cell-center column (the column every row splits at)
// and on a cell-center row, and positions whose rows graze the inner
// support disk so the excised hole is 0, 1 or 2 cells wide.
func beaconProbes(g *Grid, pdf DistanceDensity, rng *sim.RNG) []geom.Vec2 {
	a := g.area
	var pos []geom.Vec2
	for i := 0; i < 4; i++ {
		pos = append(pos, geom.Vec2{X: rng.Uniform(a.Min.X, a.Max.X), Y: rng.Uniform(a.Min.Y, a.Max.Y)})
	}
	for i := 0; i < 2; i++ {
		pos = append(pos, geom.Vec2{X: rng.Uniform(a.Min.X-150, a.Max.X+150), Y: rng.Uniform(a.Min.Y-150, a.Max.Y+150)})
	}
	kx, ky := g.nx/3, g.ny/2
	pos = append(pos,
		geom.Vec2{X: g.cx[kx], Y: rng.Uniform(a.Min.Y, a.Max.Y)},
		geom.Vec2{X: g.cx[g.nx-1], Y: g.cy[ky]},
		geom.Vec2{X: g.cx[0], Y: g.cy[0]})
	if r := innerRadius(pdf); r > 0 {
		for _, half := range []float64{0, 0.25, 0.5, 0.75, 1, 1.5} {
			// A row at dy from the beacon crosses the inner disk over
			// |dx| < sqrt(r² - dy²) = half·cellSize.
			h := half * g.cellSize
			dy := math.Sqrt(math.Max(r*r-h*h, 0))
			pos = append(pos, geom.Vec2{X: g.cx[kx] + 0.37*g.cellSize, Y: g.cy[ky] - dy})
		}
	}
	return pos
}

// TestApplyBeaconBitIdentical holds ApplyBeacon to the per-cell-checked
// reference bit for bit after every beacon, for every test PDF shape and
// every bin of a calibrated default table, on the paper's grid and on an
// offset, non-square area at cell sizes 2 and 4.
func TestApplyBeaconBitIdentical(t *testing.T) {
	pdfs := append(sortedTestPDFs(t), calibratedPDFs(t)...)
	offset := geom.Rect{Min: geom.Vec2{X: -37.3, Y: 12.9}, Max: geom.Vec2{X: 83.1, Y: 170.4}}
	for _, tc := range []struct {
		name string
		area geom.Rect
		cell float64
	}{{"paper", geom.Square(200), 2}, {"offset", offset, 2}, {"offset", offset, 4}} {
		t.Run(fmt.Sprintf("%s/cell=%v", tc.name, tc.cell), func(t *testing.T) {
			fast, err := NewGrid(tc.area, tc.cell)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewGrid(tc.area, tc.cell)
			rng := sim.NewRNG(7).Stream("bitwise")
			applies := 0
			for pi, pdf := range pdfs {
				for bi, pos := range beaconProbes(fast, pdf, rng) {
					fast.ApplyBeacon(pos, pdf)
					ref.applyBeaconPerCell(pos, pdf)
					applies++
					if diff := firstBitDiff(fast, ref); diff != "" {
						t.Fatalf("pdf %d, beacon %d at %v: %s", pi, bi, pos, diff)
					}
				}
			}
			if applies < 500 {
				t.Fatalf("only %d applies; the calibrated table lost its bins?", applies)
			}
		})
	}
}

// FuzzApplyBeaconBitwise drives ApplyBeacon and the per-cell reference
// through the same beacon sequence decoded from the fuzz input and
// requires bitwise-equal state after every beacon. Each beacon consumes
// four bytes: a PDF selector and an x, y, shape operand. Positions range
// well outside the area; x = 255 puts the beacon 1e200 m away, where d²
// overflows to +Inf. The first byte picks the grid geometry.
func FuzzApplyBeaconBitwise(f *testing.F) {
	f.Add([]byte{0, 0, 100, 120, 7, 1, 60, 60, 200, 2, 10, 240, 33, 3, 128, 128, 0})
	f.Add([]byte{1, 4, 90, 90, 9, 5, 17, 200, 40, 6, 255, 12, 3, 7, 130, 64, 150})
	f.Add([]byte{2, 2, 0, 255, 64, 3, 255, 255, 255, 4, 80, 80, 12, 0, 81, 79, 1})
	named := sortedTestPDFs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 1+4*64 {
			return
		}
		areas := []geom.Rect{
			geom.Square(60),
			{Min: geom.Vec2{X: -13.7, Y: 4.1}, Max: geom.Vec2{X: 41.9, Y: 98.3}},
			{Min: geom.Vec2{X: 1e3, Y: -250}, Max: geom.Vec2{X: 1e3 + 77, Y: -250 + 31}},
		}
		area := areas[int(data[0])%len(areas)]
		cell := []float64{2, 4, 1.5}[int(data[0]/3)%3]
		fast, err := NewGrid(area, cell)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewGrid(area, cell)
		for off := 1; off+4 <= len(data); off += 4 {
			op, a, b, c := data[off], data[off+1], data[off+2], data[off+3]
			pos := geom.Vec2{
				X: area.Min.X + (float64(a)-64)*area.Width()/128,
				Y: area.Min.Y + (float64(b)-64)*area.Height()/128,
			}
			if a == 255 {
				pos.X = 1e200
			}
			var pdf DistanceDensity
			switch op % 8 {
			case 5:
				pdf = fuzzHistogram(t, c, a^b)
			case 6:
				pdf = flatDensity{v: float64(c) * 1e-8}
			case 7:
				pdf = gaussDensity{mean: float64(c) / 4, std: 0.25 + float64(b%32)/4}
			default:
				pdf = named[int(op%8)%len(named)]
			}
			fast.ApplyBeacon(pos, pdf)
			ref.applyBeaconPerCell(pos, pdf)
			if diff := firstBitDiff(fast, ref); diff != "" {
				t.Fatalf("beacon %d at %v (op %d): %s", off/4, pos, op%8, diff)
			}
		}
	})
}

// fuzzHistogram builds a nearest-sample table from two operand bytes: the
// support's first bin and width, bin values varying so sub-floor dips fall
// inside the support.
func fuzzHistogram(t *testing.T, c, v byte) DistanceDensity {
	bins := make([]float64, 64)
	first := int(c % 48)
	for i := first; i < first+1+int(c/48)*4 && i < len(bins); i++ {
		bins[i] = 0.004 * float64(1+(int(v)+i)%5)
		if (int(v)+i)%7 == 0 {
			bins[i] = 1e-9
		}
	}
	pdf, err := caltable.Tabulate(&caltable.EmpiricalPDF{BinWidth: 1 + float64(v%4)/2, Bins: bins}, constraintFloor, 0.0625, 100)
	if err != nil {
		t.Fatal(err)
	}
	return pdf
}
