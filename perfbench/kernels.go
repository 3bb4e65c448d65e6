package main

import (
	"fmt"
	"math"
	"time"

	"cocoa"
	"cocoa/internal/bayes"
	"cocoa/internal/caltable"
	"cocoa/internal/energy"
	"cocoa/internal/geom"
	"cocoa/internal/mac"
	"cocoa/internal/mobility"
	"cocoa/internal/odometry"
	"cocoa/internal/sim"
)

// The replay kernels call one module's public function in a tight loop on
// inputs built from the workload's own config and seed: the deployment
// area, grid resolution, radio model, calibration table, team size and
// motion model. Each kernel times batches of calls and reports the median
// per-call time, so a slow batch (a GC, a preemption) does not move it.

// streamsPerDerive is how many streams one sim.stream_derive_ns operation
// derives from a fresh root. Fixing it keeps the per-stream cost
// independent of how many operations run; each operation uses a new root
// seed, so no derivation hits the seed-vector cache, as in a run on a new
// seed.
const streamsPerDerive = 64

// batchMedian runs batch until budget is spent (at least 3 times); batch
// returns how many calls it timed and their total time. The result is the
// median per-call time in nanoseconds.
func batchMedian(budget time.Duration, batch func() (int, time.Duration)) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		n, d := batch()
		if n > 0 {
			per = append(per, float64(d.Nanoseconds())/float64(n))
		}
	}
	return median(per)
}

// replayKernels sets the kernel metrics for cfg, spending about budget.
func (e *env) replayKernels(cfg cocoa.Config, budget time.Duration) error {
	each := budget / 8
	rng := sim.NewRNG(e.seed).Stream("perfbench.kernels")

	// caltable: one full calibration, the cost a cold caltable.Shared pays.
	var cal []float64
	for len(cal) < 3 {
		t0 := time.Now()
		if _, err := caltable.Calibrate(cfg.Radio, cfg.Calibration, sim.NewRNG(cfg.Seed).Stream("calibration")); err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		cal = append(cal, time.Since(t0).Seconds())
	}
	e.set("caltable.calibrate_s", "s", median(cal))

	// bayes: groups of eight beacons one robot hears from neighbours within
	// radio reach, each with the calibrated PDF of its sampled RSSI; the
	// grid is reset before each group.
	table, err := caltable.Shared(cfg.Radio, cfg.Calibration, cfg.Seed)
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	grid, err := bayes.NewGrid(cfg.Area, cfg.GridCellM)
	if err != nil {
		return err
	}
	type beacon struct {
		pos geom.Vec2
		pdf bayes.DistanceDensity
	}
	const groupSize = 8
	var groups [][]beacon
	reach := math.Min(cfg.Radio.MeanRange(), cfg.Calibration.MaxDist)
	for len(groups) < 32 {
		robot := randomPoint(rng, cfg.Area)
		var g []beacon
		for len(g) < groupSize {
			d := rng.Uniform(1, reach)
			pos := cfg.Area.Clamp(robot.Add(geom.FromPolar(d, rng.Uniform(0, 2*math.Pi))))
			if pdf, ok := table.Lookup(cfg.Radio.SampleRSSI(robot.Dist(pos), rng)); ok {
				g = append(g, beacon{pos, pdf})
			}
		}
		groups = append(groups, g)
	}
	next := 0
	e.set("bayes.apply_beacon_us", "us", batchMedian(each, func() (int, time.Duration) {
		grid.Reset()
		g := groups[next%len(groups)]
		next++
		t0 := time.Now()
		for _, b := range g {
			grid.ApplyBeacon(b.pos, b.pdf)
		}
		return len(g), time.Since(t0)
	})/1e3)
	est := grid.Estimate()
	e.check(cfg.Area.Contains(est) && math.Abs(grid.TotalProbability()-1) < 1e-6,
		"bayes replay: estimate %v or mass %v out of range", est, grid.TotalProbability())

	// sim: fresh roots deriving a fixed number of per-robot streams.
	root := e.seed * 1_000_003
	e.set("sim.stream_derive_ns", "ns", batchMedian(each, func() (int, time.Duration) {
		t0 := time.Now()
		for op := 0; op < 4; op++ {
			root++
			r := sim.NewRNG(root)
			for i := 0; i < streamsPerDerive; i++ {
				r.StreamN("mobility", i)
			}
		}
		return 4 * streamsPerDerive, time.Since(t0)
	}))

	// mac: one beacon broadcast over the workload's team, stations placed
	// where the mobility model starts them, with the spatial index the
	// team uses.
	s := sim.New()
	macCfg := mac.DefaultConfig(cfg.Radio)
	macCfg.NeighborIndex = mac.IndexGrid
	macCfg.IndexSlackM = cfg.VMax * float64(cfg.SampleIntervalS)
	med, err := mac.NewMedium(s, macCfg, sim.NewRNG(cfg.Seed).Stream("mac"))
	if err != nil {
		return err
	}
	mobCfg := mobility.DefaultConfig(cfg.VMax)
	mobCfg.Area = cfg.Area
	for id := 0; id < cfg.NumRobots; id++ {
		w, err := mobility.NewWaypoint(mobCfg, rng.StreamN("mobility", id))
		if err != nil {
			return err
		}
		med.Attach(id, &station{pos: w.Position(0)})
	}
	sender := 0
	var sendErr error
	e.set("mac.broadcast_us", "us", batchMedian(each, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 16; i++ {
			if err := med.Send(sender%cfg.NumRobots, mac.Frame{Kind: 1, Bytes: 56}); err != nil {
				sendErr = err
			}
			sender++
			s.Run()
		}
		return 16, time.Since(t0)
	})/1e3)
	e.check(sendErr == nil && med.Stats().Delivered > 0,
		"mac replay: send error %v, %d delivered", sendErr, med.Stats().Delivered)

	// radio: RSSI draws at distances across the radio's mean range.
	dists := make([]float64, 1024)
	for i := range dists {
		dists[i] = rng.Uniform(0.5, cfg.Radio.MeanRange())
	}
	var rssiSum float64
	e.set("radio.sample_rssi_ns", "ns", batchMedian(each, func() (int, time.Duration) {
		t0 := time.Now()
		for _, d := range dists {
			rssiSum += cfg.Radio.SampleRSSI(d, rng)
		}
		return len(dists), time.Since(t0)
	}))
	e.check(!math.IsNaN(rssiSum), "radio replay: NaN RSSI")

	// mobility and odometry: one robot's waypoint track, sampled at the
	// team's sampling interval, fed to a dead reckoner.
	way, err := mobility.NewWaypoint(mobCfg, rng.Stream("track"))
	if err != nil {
		return err
	}
	dt := float64(cfg.SampleIntervalS)
	deltas := make([]geom.Vec2, 1024)
	prev := way.Position(0)
	for i := range deltas {
		p := way.Position(sim.Time(float64(i+1) * dt))
		deltas[i] = p.Sub(prev)
		prev = p
	}
	now := sim.Time(float64(len(deltas)) * dt)
	e.set("mobility.position_ns", "ns", batchMedian(each, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 1024; i++ {
			now += sim.Time(dt)
			prev = way.Position(now)
		}
		return 1024, time.Since(t0)
	}))
	e.check(cfg.Area.Contains(prev), "mobility replay: position %v outside the area", prev)

	dr, err := odometry.NewDeadReckoner(cfg.Odometry, rng.Stream("odometry"), cfg.Area.Center())
	if err != nil {
		return err
	}
	e.set("odometry.step_ns", "ns", batchMedian(each, func() (int, time.Duration) {
		dr.Reset(cfg.Area.Center())
		t0 := time.Now()
		for _, d := range deltas {
			dr.Step(d, dt)
		}
		return len(deltas), time.Since(t0)
	}))
	ep := dr.Estimate()
	e.check(!math.IsNaN(ep.X) && !math.IsNaN(ep.Y), "odometry replay: NaN estimate")

	// energy: the radio state changes a duty-cycled robot makes.
	states := []energy.State{energy.Idle, energy.Rx, energy.Idle, energy.Tx, energy.Idle, energy.Sleep}
	meter := energy.NewMeter(cfg.Energy, 0, energy.Idle)
	var at sim.Time
	e.set("energy.set_state_ns", "ns", batchMedian(each, func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < 1024; i++ {
			at += 0.01
			meter.SetState(at, states[i%len(states)])
		}
		return 1024, time.Since(t0)
	}))
	e.check(meter.TotalJ() > 0, "energy replay: no energy accrued")
	return nil
}

func randomPoint(rng *sim.RNG, r geom.Rect) geom.Vec2 {
	return geom.Vec2{X: rng.Uniform(r.Min.X, r.Max.X), Y: rng.Uniform(r.Min.Y, r.Max.Y)}
}

// station is a fixed, always-listening medium endpoint.
type station struct{ pos geom.Vec2 }

func (s *station) Position() geom.Vec2        { return s.pos }
func (s *station) Listening() bool            { return true }
func (s *station) BeginTx()                   {}
func (s *station) EndTx()                     {}
func (s *station) BeginRx()                   {}
func (s *station) EndRx()                     {}
func (s *station) Deliver(mac.Frame, float64) {}
