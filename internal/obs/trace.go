package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Trace event phases (the Chrome trace-event subset this package emits).
const (
	PhaseBegin    = "B" // span start, paired with a later PhaseEnd on the same track
	PhaseEnd      = "E" // span end
	PhaseComplete = "X" // self-contained span with an explicit duration
	PhaseInstant  = "i" // point event
	PhaseMeta     = "M" // metadata (process/thread names)
)

// TraceEvent is one record in Chrome trace-event JSON ("JSON Array
// Format" / the traceEvents envelope), loadable in Perfetto and
// chrome://tracing. Timestamps and durations are microseconds; this
// package records them on the simulation's virtual clock, so a trace of a
// deterministic run is itself deterministic.
type TraceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Trace accumulates the span timeline of one run: hierarchical B/E spans
// per track (tid), self-contained X spans, instants, and metadata. A run
// records into it through an observer of its event stream, which its
// single-threaded event loop feeds, so insertion order is deterministic;
// recording appends under a mutex.
type Trace struct {
	mu     sync.Mutex
	events []TraceEvent
	// open tracks the in-flight B spans per tid (a name stack), so an
	// aborted or duration-truncated run can be closed into balanced form.
	open map[int][]string
}

// NewTrace returns an empty recorder.
func NewTrace() *Trace {
	return &Trace{open: map[int][]string{}}
}

// Begin opens a span on track tid at simulation time atS (seconds).
func (t *Trace) Begin(tid int, name string, atS float64, args map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: PhaseBegin, TsUs: atS * 1e6, TID: tid, Args: args,
	})
	t.open[tid] = append(t.open[tid], name)
}

// End closes the innermost open span on track tid at simulation time atS.
// Closing an empty track is a no-op (the Begin was never recorded).
func (t *Trace) End(tid int, atS float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stack := t.open[tid]
	if len(stack) == 0 {
		return
	}
	name := stack[len(stack)-1]
	t.open[tid] = stack[:len(stack)-1]
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: PhaseEnd, TsUs: atS * 1e6, TID: tid,
	})
}

// Complete records a self-contained span of durS seconds starting at atS.
func (t *Trace) Complete(tid int, name string, atS, durS float64, args map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: PhaseComplete, TsUs: atS * 1e6, DurUs: durS * 1e6,
		TID: tid, Args: args,
	})
}

// Instant records a point event at simulation time atS.
func (t *Trace) Instant(tid int, name string, atS float64, args map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{
		Name: name, Phase: PhaseInstant, TsUs: atS * 1e6, TID: tid,
		Scope: "t", Args: args,
	})
}

// SetProcessName attaches a process_name metadata record, which Perfetto
// renders as the track group's title (e.g. a job ID).
func (t *Trace) SetProcessName(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{
		Name: "process_name", Phase: PhaseMeta, Args: map[string]any{"name": name},
	})
}

// SetThreadName titles track tid (e.g. "event-loop", "robot 7").
func (t *Trace) SetThreadName(tid int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{
		Name: "thread_name", Phase: PhaseMeta, TID: tid, Args: map[string]any{"name": name},
	})
}

// CloseOpen ends every still-open span at simulation time atS, innermost
// first per track. A window whose scheduled end falls past the run's
// DurationS leaves its Begin dangling; closing here keeps every exported
// trace balanced.
func (t *Trace) CloseOpen(atS float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := make([]int, 0, len(t.open))
	for tid := range t.open {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		stack := t.open[tid]
		for i := len(stack) - 1; i >= 0; i-- {
			t.events = append(t.events, TraceEvent{
				Name: stack[i], Phase: PhaseEnd, TsUs: atS * 1e6, TID: tid,
			})
		}
		delete(t.open, tid)
	}
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events in insertion order.
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// traceFile is the on-disk envelope ("JSON Object Format").
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// WriteJSON serializes the trace in Chrome trace-event JSON. Events keep
// insertion order — the deterministic order of the simulation's event
// loop — so identical runs serialize to identical bytes.
func (t *Trace) WriteJSON(w io.Writer) error {
	events := t.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ReadTrace is the strict decoder for WriteJSON's output: unknown fields,
// unknown phases, malformed values, and unbalanced B/E spans are all
// errors, so a trace that decodes cleanly is loadable and well-nested.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f traceFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("obs: decode trace: %w", err)
	}
	open := map[[2]int][]string{}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("obs: trace event %d: empty name", i)
		}
		switch ev.Phase {
		case PhaseBegin:
			key := [2]int{ev.PID, ev.TID}
			open[key] = append(open[key], ev.Name)
		case PhaseEnd:
			key := [2]int{ev.PID, ev.TID}
			stack := open[key]
			if len(stack) == 0 {
				return nil, fmt.Errorf("obs: trace event %d: E %q on pid=%d tid=%d with no open span",
					i, ev.Name, ev.PID, ev.TID)
			}
			if top := stack[len(stack)-1]; top != ev.Name {
				return nil, fmt.Errorf("obs: trace event %d: E %q does not match open span %q", i, ev.Name, top)
			}
			open[key] = stack[:len(stack)-1]
		case PhaseComplete:
			if ev.DurUs < 0 {
				return nil, fmt.Errorf("obs: trace event %d: X %q with negative duration", i, ev.Name)
			}
		case PhaseInstant, PhaseMeta:
		default:
			return nil, fmt.Errorf("obs: trace event %d: unknown phase %q", i, ev.Phase)
		}
		if ev.Phase != PhaseMeta && ev.TsUs < 0 {
			return nil, fmt.Errorf("obs: trace event %d: negative timestamp", i)
		}
	}
	for key, stack := range open {
		if len(stack) > 0 {
			return nil, fmt.Errorf("obs: unbalanced trace: %d span(s) still open on pid=%d tid=%d (innermost %q)",
				len(stack), key[0], key[1], stack[len(stack)-1])
		}
	}
	return f.TraceEvents, nil
}
