package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cocoa"
	"cocoa/internal/checkpoint"
)

// slowCfg is a deployment heavy enough (dense grid, 40 robots) that its
// tick loop runs for hundreds of milliseconds — wide enough to interrupt
// reliably — while still finishing fast enough for a test suite.
func slowCfg(seed int64) cocoa.Config {
	cfg := cocoa.DefaultConfig()
	cfg.Seed = seed
	cfg.NumRobots = 40
	cfg.NumEquipped = 20
	cfg.DurationS = 1800
	cfg.Calibration.Samples = 40000
	cfg.GridCellM = 2
	return cfg
}

// waitJobTerminal polls a job through the in-process API until it
// settles, asserting every observed pre-terminal state is one of allowed.
func waitJobTerminal(t *testing.T, j *Job, allowed ...State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		ok := false
		for _, a := range allowed {
			if st.State == a {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("job %s in unexpected pre-terminal state %s", st.ID, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", st.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitGone polls until path no longer exists (the settler releases state
// directories after the terminal transition is published).
func waitGone(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still exists", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The restart guarantee end to end, in-process: a daemon hard-stopped
// mid-job leaves a snapshot behind; a new daemon over the same state
// directory recovers the job, resumes it from the snapshot, and serves
// result bytes identical to an uninterrupted direct run — with no
// goroutine left behind by either instance.
func TestRestartResumesDrainKilledJob(t *testing.T) {
	before := runtime.NumGoroutine()
	stateDir := t.TempDir()
	cfg := slowCfg(7)

	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	// Instance A: accept the job, wait for its first snapshot, then
	// hard-stop (an already-expired drain context cancels in-flight work,
	// exactly what a deadline-killed daemon does on SIGTERM).
	a := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir, CheckpointEveryTicks: 40})
	j, err := a.Submit(JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(stateDir, j.ID(), cocoa.CheckpointFile)
	for deadline := time.Now().Add(60 * time.Second); ; {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot at %s", ckpt)
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	cancel()
	_ = a.Shutdown(expired)
	st := j.Status()
	if st.State != StateCanceled {
		t.Fatalf("after hard drain: state %s (%s), want canceled", st.State, st.Error)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain-killed job lost its state: %v", err)
	}

	// Instance B: recover, resume, finish.
	b := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir, CheckpointEveryTicks: 40})
	ids, err := b.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != j.ID() {
		t.Fatalf("recovered %v, want [%s]", ids, j.ID())
	}
	rj, ok := b.Job(j.ID())
	if !ok {
		t.Fatalf("recovered job %s not tracked", j.ID())
	}
	// A recovered job executes as "resumed", never plain "running".
	rst := waitJobTerminal(t, rj, StateQueued, StateResumed)
	if rst.State != StateDone {
		t.Fatalf("recovered job: state %s (%s)", rst.State, rst.Error)
	}
	if !rst.Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	got, ok := rj.Result()
	if !ok {
		t.Fatal("no result on recovered job")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed result differs from uninterrupted direct run")
	}
	waitGone(t, filepath.Join(stateDir, j.ID()))

	// The restored sequence counter keeps new IDs clear of recovered ones.
	q := quickCfg(1)
	j2, err := b.Submit(JobRequest{Config: &q})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID() <= j.ID() {
		t.Fatalf("new job ID %s not above recovered %s", j2.ID(), j.ID())
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if err := b.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// State-directory retention: jobs that end on their own terms release
// their directory; only process-interrupted jobs keep it.
func TestStateDirLifecycle(t *testing.T) {
	stateDir := t.TempDir()
	s := New(Config{Workers: 2, QueueDepth: 8, StateDir: stateDir, CheckpointEveryTicks: 40})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	t.Run("done releases", func(t *testing.T) {
		cfg := quickCfg(3)
		j, err := s.Submit(JobRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateDone {
			t.Fatalf("state %s (%s)", st.State, st.Error)
		}
		waitGone(t, filepath.Join(stateDir, j.ID()))
	})

	t.Run("user cancel releases", func(t *testing.T) {
		cfg := slowCfg(4)
		j, err := s.Submit(JobRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(stateDir, j.ID(), "job.json")); err != nil {
			t.Fatalf("accepted job not persisted: %v", err)
		}
		j.Cancel()
		if st := waitJobTerminal(t, j, StateQueued, StateRunning); st.State != StateCanceled {
			t.Fatalf("state %s (%s)", st.State, st.Error)
		}
		waitGone(t, filepath.Join(stateDir, j.ID()))
	})

	t.Run("deadline retains", func(t *testing.T) {
		cfg := slowCfg(5)
		j, err := s.Submit(JobRequest{Config: &cfg, TimeoutS: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJobTerminal(t, j, StateQueued, StateRunning)
		if st.State != StateFailed {
			t.Fatalf("state %s (%s)", st.State, st.Error)
		}
		// Retention is decided by the settler after the terminal
		// transition; give it a moment before asserting presence.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, err := os.Stat(filepath.Join(stateDir, j.ID(), "job.json")); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("deadline-killed job lost its state directory")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// RecoverJobs housekeeping: garbage directories are discarded, unrelated
// entries are untouched, the sequence counter clears every job-<n> name
// ever seen, and a stateless service recovers nothing.
func TestRecoverJobsHousekeeping(t *testing.T) {
	t.Run("stateless no-op", func(t *testing.T) {
		s := New(Config{Workers: 1})
		ids, err := s.RecoverJobs()
		if err != nil || ids != nil {
			t.Fatalf("got %v, %v", ids, err)
		}
	})

	stateDir := t.TempDir()
	// job-000007: directory without a record (the process died between
	// MkdirAll and the record write) — discarded, but its number still
	// advances the sequence.
	if err := os.MkdirAll(filepath.Join(stateDir, "job-000007"), 0o755); err != nil {
		t.Fatal(err)
	}
	// job-000002: record whose ID disagrees with its directory.
	if err := writeJobRecord(filepath.Join(stateDir, "job-000002"),
		jobRecord{ID: "job-000001", Request: JobRequest{Experiment: "nope"}}); err != nil {
		t.Fatal(err)
	}
	// job-000003: well-formed record for an experiment that no longer
	// exists — discarded via the normal validation path.
	if err := writeJobRecord(filepath.Join(stateDir, "job-000003"),
		jobRecord{ID: "job-000003", Request: JobRequest{Experiment: "no-such-experiment"}}); err != nil {
		t.Fatal(err)
	}
	// Entries RecoverJobs must ignore entirely.
	if err := os.MkdirAll(filepath.Join(stateDir, "notajob"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stateDir, "job-file"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ids, err := s.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("recovered %v from garbage", ids)
	}
	for _, gone := range []string{"job-000007", "job-000002", "job-000003"} {
		if _, err := os.Stat(filepath.Join(stateDir, gone)); !os.IsNotExist(err) {
			t.Errorf("%s not discarded", gone)
		}
	}
	for _, kept := range []string{"notajob", "job-file"} {
		if _, err := os.Stat(filepath.Join(stateDir, kept)); err != nil {
			t.Errorf("unrelated entry %s disturbed: %v", kept, err)
		}
	}
	cfg := quickCfg(1)
	j, err := s.Submit(JobRequest{Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("job-%06d", 8); j.ID() != want {
		t.Fatalf("first post-recovery ID %s, want %s", j.ID(), want)
	}
}

// State persisted before the reference selectors left the Config still
// carries their keys. The lenient reload paths must ignore them: a job.json
// alone reruns, a job.json plus snapshot resumes, and both serve bytes
// identical to a fresh run.
func TestRecoverPreUpgradeState(t *testing.T) {
	retired := func(t *testing.T, configJSON []byte) json.RawMessage {
		var m map[string]any
		if err := json.Unmarshal(configJSON, &m); err != nil {
			t.Fatal(err)
		}
		m["NeighborIndex"], m["GridStats"] = "scan", "eager"
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cfg := quickCfg(3)
	res, err := cocoa.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	cfgJSON, _ := json.Marshal(cfg)

	stateDir := t.TempDir()
	for _, id := range []string{"job-000001", "job-000002"} {
		rec, _ := json.Marshal(map[string]any{"id": id, "request": map[string]any{"config": retired(t, cfgJSON)}})
		dir := filepath.Join(stateDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "job.json"), rec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// job-000002 also left a snapshot behind.
	ckptCfg := cfg
	ckptCfg.Checkpoint = cocoa.CheckpointSpec{EveryTicks: 50, Dir: filepath.Join(stateDir, "job-000002")}
	if _, err := cocoa.Run(ckptCfg); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(ckptCfg.Checkpoint.Dir, cocoa.CheckpointFile)
	snap, err := cocoa.ReadSnapshot(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	snap.ConfigJSON = retired(t, snap.ConfigJSON)
	if err := checkpoint.WriteFile(ckpt, snap); err != nil {
		t.Fatal(err)
	}
	if got, err := cocoa.ResumeFrom(context.Background(), snap); err != nil {
		t.Fatalf("resume pre-upgrade snapshot: %v", err)
	} else if b, _ := json.Marshal(got); !bytes.Equal(b, want) {
		t.Fatal("resumed pre-upgrade snapshot differs from a fresh run")
	}

	s := New(Config{Workers: 1, QueueDepth: 2, StateDir: stateDir})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	ids, err := s.RecoverJobs()
	if err != nil || len(ids) != 2 {
		t.Fatalf("recovered %v, %v; want both jobs", ids, err)
	}
	for _, id := range ids {
		j, _ := s.Job(id)
		if st := waitJobTerminal(t, j, StateQueued, StateResumed); st.State != StateDone {
			t.Fatalf("%s: state %s (%s)", id, st.State, st.Error)
		}
		if got, _ := j.Result(); !bytes.Equal(got, want) {
			t.Errorf("%s: recovered result differs from a fresh run", id)
		}
	}
}
