package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cocoa"
	"cocoa/internal/caltable"
	"cocoa/internal/scenario"
	"cocoa/internal/serve"
	"cocoa/internal/telemetry"
)

// cocoad is the batch service in its durable configuration: an in-process
// serve.Server with one worker per CPU and a state directory, behind a
// loopback http.Server. One client per CPU submits the five quick golden
// families in round-robin order, waits on the job's events stream, fetches
// the result and compares its summary byte for byte with the checked-in
// golden file. The simulations are small, so the service, the worker
// pool, JSON and the checkpoint writes take most of the time.
type cocoad struct {
	families []string          // sorted family names
	bodies   map[string][]byte // POST body per family
	golden   map[string][]byte // expected summary bytes per family
	configs  map[string]cocoa.Config
}

// cocoadRounds is how many times each client cycles through the five
// families in one traced pass.
const cocoadRounds = 4

// cocoadSessionJobs is how many jobs one service process serves before the
// untraced loop restarts it on the same state directory. The service keeps
// every finished job's result in memory and has no way to evict one, so
// its footprint grows with the jobs it has served; restarting at a fixed
// job count keeps peak_rss_mb a measure of the service rather than of how
// many jobs fit in the run.
const cocoadSessionJobs = 1000

// cocoadWindow is how many consecutive jobs make one window of the
// untraced loop (loopStats.timed): under two seconds at the service's
// usual rate on two CPUs, short next to the stretches in which the host's
// other tenants take CPU, and long enough to hold a service restart.
const cocoadWindow = 150

// daemon is one booted service.
type daemon struct {
	dir    string // state directory
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
	once   sync.Once
}

func (c *cocoad) load(e *env) error {
	c.configs = scenario.QuickFamilies()
	c.bodies, c.golden = map[string][]byte{}, map[string][]byte{}
	for name, cfg := range c.configs {
		cfg := cfg
		body, err := json.Marshal(serve.JobRequest{Config: &cfg})
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(e.root, "internal", "scenario", "testdata", "golden_"+name+".json"))
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		c.families = append(c.families, name)
		c.bodies[name], c.golden[name] = body, want
	}
	sort.Strings(c.families)
	return nil
}

// boot starts a durable service on a loopback port and waits until it
// answers /healthz.
func (c *cocoad) boot(e *env, stateDir string) (*daemon, error) {
	srv := serve.New(serve.Config{Workers: e.nproc, QueueDepth: e.nproc, StateDir: stateDir})
	if _, err := srv.RecoverJobs(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		dir: stateDir, srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * e.nproc}},
	}
	go func() { _ = d.http.Serve(ln) }() // returns http.ErrServerClosed at stop
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return d, nil
}

// stop closes the listener and every connection, then drains the service.
// Calls after the first do nothing.
func (d *daemon) stop() {
	d.once.Do(func() {
		_ = d.http.Close() // the error only reports already-closed listeners
		d.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = d.srv.Shutdown(ctx) // every job has settled by the time stop runs
	})
}

// jobTiming is one job as its client saw it.
type jobTiming struct {
	submit, queue, exec, fetch, rt, toDone time.Duration
	resultBytes                            int
	meanErr, robotSimS                     float64
}

// job submits one family, follows its events stream to a terminal state,
// fetches the result and checks it against the golden summary.
func (c *cocoad) job(e *env, d *daemon, family string) (jobTiming, bool) {
	var jt jobTiming
	t0 := time.Now()
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(c.bodies[family]))
	if err != nil {
		e.check(false, "%s: submit: %v", family, err)
		return jt, false
	}
	var st serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		e.check(false, "%s: submit returned %d (%v)", family, resp.StatusCode, err)
		return jt, false
	}
	t1 := time.Now()

	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		e.check(false, "%s: events: %v", family, err)
		return jt, false
	}
	var running, done time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			break
		}
		if running.IsZero() && st.State == serve.StateRunning {
			running = time.Now()
		}
		if st.State.Terminal() {
			done = time.Now()
			break
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if st.State != serve.StateDone {
		e.check(false, "%s: job %s ended %q: %s", family, st.ID, st.State, st.Error)
		return jt, false
	}
	if running.IsZero() { // the job was done before the stream opened
		running = t1
	}

	resp, err = d.client.Get(d.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		e.check(false, "%s: result: %v", family, err)
		return jt, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		e.check(false, "%s: result returned %d (%v)", family, resp.StatusCode, err)
		return jt, false
	}
	t3 := time.Now()
	var res cocoa.Result
	if err := json.Unmarshal(body, &res); err != nil {
		e.check(false, "%s: decode result: %v", family, err)
		return jt, false
	}
	sum := scenario.Summarize(&res)
	got, err := json.MarshalIndent(sum, "", "  ")
	ok := err == nil && bytes.Equal(append(got, '\n'), c.golden[family])
	e.check(ok, "%s: served summary differs from golden_%s.json:\n%s", family, family, got)
	return jobTiming{
		submit: t1.Sub(t0), queue: running.Sub(t1), exec: done.Sub(running), fetch: t3.Sub(done),
		rt: time.Since(t0), toDone: done.Sub(t0), resultBytes: len(body), meanErr: sum.MeanErrorM,
		robotSimS: float64(c.configs[family].NumRobots) * float64(c.configs[family].DurationS),
	}, ok
}

// clients runs one client per CPU against d. Client k starts its round
// robin at offsets[k]; each client stops when more() turns false or after
// limit jobs (limit 0: no limit). Every job that passed its check is
// handed to record.
func (c *cocoad) clients(e *env, d *daemon, offsets []int, limit int, more func() bool, record func(jobTiming)) {
	var wg sync.WaitGroup
	for k := range offsets {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := 0; (limit == 0 || i < limit) && more(); i++ {
				fam := c.families[(off+i)%len(c.families)]
				if jt, ok := c.job(e, d, fam); ok {
					record(jt)
				}
			}
		}(offsets[k])
	}
	wg.Wait()
}

func (c *cocoad) offsets(e *env) []int {
	rng := rand.New(rand.NewSource(e.seed))
	out := make([]int, e.nproc)
	for k := range out {
		out[k] = rng.Intn(len(c.families))
	}
	return out
}

// setup boots a warm-up service and setupReps timed ones, each from a cold
// calibration cache, and keeps the last one running.
func (c *cocoad) setup(e *env) ([]float64, *daemon, error) {
	cal := c.configs["cocoa"]
	var booted []*daemon
	times, err := timeSetup(func() error {
		if _, err := caltable.Shared(cal.Radio, cal.Calibration, cal.Seed); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(e.out, "state-")
		if err != nil {
			return err
		}
		d, err := c.boot(e, dir)
		if err == nil {
			booted = append(booted, d)
		}
		return err
	})
	if len(booted) == 0 {
		return nil, nil, err
	}
	last := booted[len(booted)-1]
	for _, d := range booted[:len(booted)-1] {
		d.stop()
	}
	if err != nil {
		last.stop()
		return nil, nil, err
	}
	return times, last, nil
}

func (c *cocoad) untraced(e *env) error {
	if err := c.load(e); err != nil {
		return err
	}
	setup, d, err := c.setup(e)
	if err != nil {
		return err
	}
	defer func() { d.stop() }() // d changes at each restart
	offsets := c.offsets(e)
	always := func() bool { return true }
	c.clients(e, d, offsets, len(c.families), always, func(jobTiming) {}) // warm-up round

	var mu sync.Mutex
	ls := loopStats{setup: setup, window: cocoadWindow}
	p0 := readProc()
	t0 := time.Now()
	ls.start = t0
	deadline := t0.Add(time.Duration(e.seconds * float64(time.Second)))
	record := func(jt jobTiming) {
		mu.Lock()
		ls.samples = append(ls.samples, sample{end: time.Now(), rt: jt.rt, run: jt.toDone, runs: 1,
			robotSimS: jt.robotSimS, meanErr: jt.meanErr})
		mu.Unlock()
	}
	sessions := 1
	for {
		var issued atomic.Int64
		c.clients(e, d, offsets, 0, func() bool {
			return time.Now().Before(deadline) && issued.Add(1) <= cocoadSessionJobs
		}, record)
		if !time.Now().Before(deadline) {
			break
		}
		d.stop()
		next, err := c.boot(e, d.dir)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		d = next
		sessions++
	}
	ls.wall = time.Since(t0)
	ls.proc = readProc().sub(p0)
	e.note("service sessions: %d (restarted every %d jobs)", sessions, cocoadSessionJobs)
	e.reportEndToEnd(ls)
	return nil
}

func (c *cocoad) traced(e *env) error {
	e.initPerLayer()
	if err := c.load(e); err != nil {
		return err
	}
	_, d, err := c.setup(e)
	if err != nil {
		return err
	}
	defer d.stop()
	offsets := c.offsets(e)
	always := func() bool { return true }
	c.clients(e, d, offsets, len(c.families), always, func(jobTiming) {})

	var mu sync.Mutex
	var jobs []jobTiming
	var execSum, passWall time.Duration
	perPass := cocoadRounds * len(c.families)
	tp, err := e.alternate(e.share(passShare), 2, func(traced bool) (passStats, error) {
		var pass []jobTiming
		t0 := time.Now()
		c.clients(e, d, offsets, perPass, always, func(jt jobTiming) {
			mu.Lock()
			pass = append(pass, jt)
			mu.Unlock()
		})
		wall := time.Since(t0)
		if traced {
			jobs = append(jobs, pass...)
			for _, jt := range pass {
				execSum += jt.exec
			}
			passWall += wall
		}
		return passStats{wall: wall, runs: perPass * len(offsets)}, nil
	})
	if err != nil {
		return err
	}
	e.reportPasses(tp)

	var submit, queue, exec, fetch, size []float64
	for _, jt := range jobs {
		submit = append(submit, ms(jt.submit))
		queue = append(queue, ms(jt.queue))
		exec = append(exec, ms(jt.exec))
		fetch = append(fetch, ms(jt.fetch))
		size = append(size, float64(jt.resultBytes))
	}
	e.set("serve.submit_ms", "ms", median(submit))
	e.set("serve.queue_wait_ms", "ms", median(queue))
	e.set("serve.exec_ms", "ms", median(exec))
	e.set("serve.result_fetch_ms", "ms", median(fetch))
	e.set("serve.result_bytes", "bytes", mean(size))
	// The service's queue is a runner.Pool: its wait is the runner's.
	e.set("runner.queue_wait_ms", "ms", mean(queue))
	if passWall > 0 {
		e.set("runner.busy_frac", "ratio", float64(execSum)/(float64(passWall)*float64(e.nproc)))
	}
	return c.replay(e, e.share(kernelShare))
}

// replay runs the quick families in this process, each once plainly and
// once with a checkpoint spec, to time the cocoa calls the service makes
// and the cost checkpointing adds to a job; then it runs the kernel
// replays on the combined CoCoA family's config.
func (c *cocoad) replay(e *env, budget time.Duration) error {
	var layers []runTiming
	var overhead, snapBytes []float64
	var events int64
	telemetry.Default.SetEnabled(true)
	defer telemetry.Default.SetEnabled(false)
	start := time.Now()
	for i := 0; i < len(c.families) || time.Since(start) < budget/2; i++ {
		fam := c.families[i%len(c.families)]
		cfg := c.configs[fam]
		before := telemetry.Default.Snapshot()
		plain := e.timedRunGolden(cfg, c.golden[fam])
		events += counterDelta(before, telemetry.Default.Snapshot())["sim.events_dispatched"]
		layers = append(layers, plain)
		cfg.Checkpoint = cocoa.CheckpointSpec{Dir: filepath.Join(e.out, fmt.Sprintf("ckpt-%d", i))}
		ck := e.timedRunGolden(cfg, c.golden[fam])
		overhead = append(overhead, ms(ck.newTeam+ck.run-plain.newTeam-plain.run))
		if fi, err := os.Stat(filepath.Join(cfg.Checkpoint.Dir, cocoa.CheckpointFile)); err == nil {
			snapBytes = append(snapBytes, float64(fi.Size()))
		}
		if err := os.RemoveAll(cfg.Checkpoint.Dir); err != nil {
			return err
		}
	}
	telemetry.Default.SetEnabled(false)
	e.reportRunTimings(layers, events)
	e.set("checkpoint.overhead_ms_per_job", "ms", median(overhead))
	e.set("checkpoint.snapshot_bytes", "bytes", median(snapBytes))
	return e.replayKernels(c.configs["cocoa"], budget/2)
}

// timedRunGolden is timedRun against a golden file's indented summary.
func (e *env) timedRunGolden(cfg cocoa.Config, golden []byte) runTiming {
	var want bytes.Buffer
	if err := json.Compact(&want, golden); err != nil {
		e.check(false, "golden: %v", err)
		return runTiming{}
	}
	return e.timedRun(context.Background(), cfg, want.Bytes())
}
