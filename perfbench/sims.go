package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"time"

	"cocoa"
	"cocoa/internal/caltable"
	"cocoa/internal/runner"
	"cocoa/internal/telemetry"
)

// Share of a traced run's seconds spent on alternating passes; the replay
// kernels get most of the rest.
const (
	passShare   = 0.55
	kernelShare = 0.3
)

func (e *env) share(f float64) time.Duration {
	return time.Duration(f * e.seconds * float64(time.Second))
}

// runTiming is the benchmark's own timing of one simulation run, split at
// the public functions it calls.
type runTiming struct {
	newTeam, run, encode time.Duration
}

// timedRun builds, runs and encodes cfg, and checks the run's summary
// against want.
func (e *env) timedRun(ctx context.Context, cfg cocoa.Config, want json.RawMessage) runTiming {
	t0 := time.Now()
	team, err := cocoa.NewTeam(cfg)
	if err != nil {
		e.check(false, "seed %d: %v", cfg.Seed, err)
		return runTiming{}
	}
	t1 := time.Now()
	res, err := team.RunContext(ctx)
	if err != nil {
		e.check(false, "seed %d: %v", cfg.Seed, err)
		return runTiming{}
	}
	t2 := time.Now()
	_, err = json.Marshal(res)
	t3 := time.Now()
	if err == nil {
		var got []byte
		got, err = summaryJSON(res)
		e.check(err == nil && sameJSON(got, want), "seed %d: summary %s differs from the reference", cfg.Seed, got)
	} else {
		e.check(false, "seed %d: %v", cfg.Seed, err)
	}
	return runTiming{newTeam: t1.Sub(t0), run: t2.Sub(t1), encode: t3.Sub(t2)}
}

// reportRunTimings sets the cocoa.* timings and the host time per
// simulated event from the runs of traced passes.
func (e *env) reportRunTimings(timings []runTiming, events int64) {
	var nt, run, enc []float64
	var runNs float64
	for _, t := range timings {
		nt = append(nt, ms(t.newTeam))
		run = append(run, ms(t.run))
		enc = append(enc, ms(t.encode))
		runNs += float64(t.run.Nanoseconds())
	}
	e.set("cocoa.new_team_ms", "ms", median(nt))
	e.set("cocoa.run_ms", "ms", median(run))
	e.set("cocoa.result_encode_ms", "ms", median(enc))
	if events > 0 {
		e.set("sim.host_ns_per_event", "ns", runNs/float64(events))
	}
}

// calibrationSetup is a simulation workload's set-up: a cold
// caltable.Shared for cfg's radio and calibration options. It leaves the
// cache empty, so the first request pays its own calibration.
func calibrationSetup(cfg cocoa.Config) ([]float64, error) {
	setup, err := timeSetup(func() error {
		_, err := caltable.Shared(cfg.Radio, cfg.Calibration, cfg.Seed)
		return err
	})
	caltable.ResetShared()
	return setup, err
}

// paperReplication is the paper's own experiment: cocoa.DefaultConfig (50
// robots, 25 equipped, grid localizer at 2 m, 1800 s) replicated over
// consecutive seeds by cocoa.RunReplication on every CPU.
type paperReplication struct{}

func (paperReplication) untraced(e *env) error {
	refs, err := loadReferences(e.root)
	if err != nil {
		return err
	}
	cfg := paperConfig(1)
	setup, err := calibrationSetup(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	robotSimS := float64(cfg.NumRobots) * float64(cfg.DurationS) * paperBlock
	ls := e.closedLoop(setup, func() (sample, bool) {
		b := rng.Intn(paperBlocks)
		opts := cocoa.ExperimentOptions{Seed: int64(1 + b*paperBlock), Parallelism: e.nproc}
		caltable.ResetShared() // a drawn block may repeat; each request calibrates its seeds
		t0 := time.Now()
		rep, err := cocoa.RunReplication(opts, paperBlock)
		t1 := time.Now()
		if err != nil {
			e.check(false, "replication at seed %d: %v", opts.Seed, err)
			return sample{}, false
		}
		got, err := json.Marshal(rep)
		ok := err == nil && sameJSON(got, refs.PaperReplications[b])
		e.check(ok, "replication at seed %d: %s differs from the reference", opts.Seed, got)
		return sample{rt: time.Since(t0), run: t1.Sub(t0), runs: paperBlock,
			robotSimS: robotSimS, meanErr: rep.MeanErrorM}, ok
	})
	e.reportEndToEnd(ls)
	return nil
}

// traced replays one replication block per pass through runner.Map, so
// each seed's run is timed on its own.
func (paperReplication) traced(e *env) error {
	e.initPerLayer()
	refs, err := loadReferences(e.root)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	base := 1 + rng.Intn(paperBlocks)*paperBlock
	var layers []runTiming
	var events int64
	var runnerWall, runnerWait time.Duration
	var runnerJobs int64
	var passWall time.Duration
	workers := e.nproc
	if workers > paperBlock {
		workers = paperBlock
	}
	tp, err := e.alternate(e.share(passShare), 2, func(traced bool) (passStats, error) {
		caltable.ResetShared() // every replication calibrates its new seeds
		before := telemetry.Default.Snapshot()
		t0 := time.Now()
		timings, err := runner.Map(context.Background(), runner.Options{Parallelism: e.nproc}, paperBlock,
			func(ctx context.Context, i int) (runTiming, error) {
				seed := base + i
				return e.timedRun(ctx, paperConfig(int64(seed)), refs.PaperSeeds[seed-1]), nil
			})
		wall := time.Since(t0)
		if err != nil {
			return passStats{}, err
		}
		if traced {
			after := telemetry.Default.Snapshot()
			events += counterDelta(before, after)["sim.events_dispatched"]
			for _, s := range telemetry.Diff(before, after).Spans {
				switch s.Name {
				case "runner.job_wall":
					runnerWall += time.Duration(s.TotalNs)
				case "runner.queue_wait":
					runnerWait += time.Duration(s.TotalNs)
					runnerJobs += s.Count
				}
			}
			layers = append(layers, timings...)
			passWall += wall
		}
		return passStats{wall: wall, runs: paperBlock}, nil
	})
	if err != nil {
		return err
	}
	e.reportPasses(tp)
	e.reportRunTimings(layers, events)
	if runnerJobs > 0 {
		e.set("runner.queue_wait_ms", "ms", ms(runnerWait)/float64(runnerJobs))
	}
	if passWall > 0 {
		e.set("runner.busy_frac", "ratio", float64(runnerWall)/(float64(passWall)*float64(workers)))
	}
	return e.replayKernels(paperConfig(int64(base)), e.share(kernelShare))
}

// swarm is a 1000-robot constant-density team (cocoa.SwarmConfig: EKF
// localizer, T=20 s, 120 s) run on one seed after another, each run
// building its team inside the timed request as users do.
type swarm struct{}

func (swarm) untraced(e *env) error {
	refs, err := loadReferences(e.root)
	if err != nil {
		return err
	}
	cfg := swarmConfig(1)
	setup, err := calibrationSetup(cfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	robotSimS := float64(cfg.NumRobots) * float64(cfg.DurationS)
	ls := e.closedLoop(setup, func() (sample, bool) {
		seed := 1 + rng.Intn(swarmSeeds)
		caltable.ResetShared() // a drawn seed may repeat; each request calibrates its seed
		t0 := time.Now()
		res, err := cocoa.Run(swarmConfig(int64(seed)))
		t1 := time.Now()
		if err != nil {
			e.check(false, "swarm seed %d: %v", seed, err)
			return sample{}, false
		}
		got, err := summaryJSON(res)
		ok := err == nil && sameJSON(got, refs.SwarmSeeds[seed-1])
		e.check(ok, "swarm seed %d: summary %s differs from the reference", seed, got)
		return sample{rt: time.Since(t0), run: t1.Sub(t0), runs: 1,
			robotSimS: robotSimS, meanErr: res.MeanError()}, ok
	})
	e.reportEndToEnd(ls)
	return nil
}

// swarmPassRuns is how many seeds one traced swarm pass runs.
const swarmPassRuns = 3

func (swarm) traced(e *env) error {
	e.initPerLayer()
	refs, err := loadReferences(e.root)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	seeds := make([]int, swarmPassRuns)
	for i := range seeds {
		seeds[i] = 1 + rng.Intn(swarmSeeds)
	}
	var layers []runTiming
	var events int64
	tp, err := e.alternate(e.share(passShare), 2, func(traced bool) (passStats, error) {
		caltable.ResetShared()
		before := telemetry.Default.Snapshot()
		t0 := time.Now()
		var timings []runTiming
		for _, seed := range seeds {
			timings = append(timings, e.timedRun(context.Background(), swarmConfig(int64(seed)), refs.SwarmSeeds[seed-1]))
		}
		wall := time.Since(t0)
		if traced {
			events += counterDelta(before, telemetry.Default.Snapshot())["sim.events_dispatched"]
			layers = append(layers, timings...)
		}
		return passStats{wall: wall, runs: len(seeds)}, nil
	})
	if err != nil {
		return err
	}
	e.reportPasses(tp)
	e.reportRunTimings(layers, events)
	return e.replayKernels(swarmConfig(int64(seeds[0])), e.share(kernelShare))
}
