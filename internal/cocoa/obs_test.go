package cocoa

import (
	"bytes"
	"testing"

	"cocoa/internal/geom"
	"cocoa/internal/obs"
)

// Identical runs must record identical traces: the recorder works on the
// simulation's virtual clock and the event loop's deterministic order, so
// the exported JSON is byte-for-byte reproducible, at any worker count.
func TestObsTraceDeterministic(t *testing.T) {
	traceJSON := func(workers int) []byte {
		cfg := testConfig()
		cfg.UpdateWorkers = workers
		cfg.Trace = obs.NewTrace()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := traceJSON(1)
	for _, workers := range []int{1, 8} {
		if got := traceJSON(workers); !bytes.Equal(base, got) {
			t.Errorf("UpdateWorkers=%d: trace differs from serial baseline", workers)
		}
	}
}

// emit is the one point where a run reports what happened, and an
// untraced, unobserved run (the common case) must pay nothing for it:
// with zero observers every emission degenerates to a length check, with
// zero allocations.
func TestEmitDisabledZeroAllocs(t *testing.T) {
	team, err := NewTeam(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(){
		"emit":       func() { team.emit(EventBeaconSent, 1, geom.Vec2{X: 1, Y: 2}, 0, 0) },
		"emitSimple": func() { team.emitSimple(EventWindowStart, -1) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s with no observers allocates %v allocs/op, want 0", name, allocs)
		}
	}
}

// The trace is a view of the event stream: a team registers its trace
// observer only when Config.Trace is set, so an untraced run keeps the
// zero-observer fast path, and a traced one records through that single
// observer.
func TestUntracedRunRegistersNoObserver(t *testing.T) {
	cfg := testConfig()
	team, err := NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(team.observers); n != 0 {
		t.Fatalf("untraced team has %d observers, want 0", n)
	}
	cfg.Trace = obs.NewTrace()
	team, err = NewTeam(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(team.observers); n != 1 {
		t.Fatalf("traced team has %d observers, want 1", n)
	}
	if _, err := team.Run(); err != nil {
		t.Fatal(err)
	}
	if cfg.Trace.Len() == 0 {
		t.Error("traced run recorded no trace events")
	}
}
