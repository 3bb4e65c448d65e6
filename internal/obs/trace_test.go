package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.SetProcessName("run 0")
	tr.SetThreadName(0, "event-loop")
	tr.Begin(0, "run", 0, map[string]any{"robots": 5.0})
	tr.Begin(0, "sampling-window", 1.0, nil)
	tr.Instant(0, "mac-frame", 1.25, map[string]any{"src": 3.0})
	tr.Complete(7, "belief-update", 1.5, 0.0, nil)
	tr.End(0, 2.0) // closes sampling-window
	tr.End(0, 3.0) // closes run
	if got := tr.Len(); got != 8 {
		t.Fatalf("Len() = %d, want 8", got)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	events, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(events) != 8 {
		t.Fatalf("round-trip produced %d events, want 8", len(events))
	}
	// Spot-check the microsecond conversion and a phase.
	if events[2].Name != "run" || events[2].Phase != PhaseBegin || events[2].TsUs != 0 {
		t.Fatalf("event 2 = %+v, want B run at 0", events[2])
	}
	if events[3].TsUs != 1e6 {
		t.Fatalf("window begin ts = %v µs, want 1e6", events[3].TsUs)
	}
	// Re-serialize: byte-identical (insertion order is preserved).
	tr2 := NewTrace()
	tr2.mu.Lock()
	tr2.events = events
	tr2.mu.Unlock()
	var buf2 bytes.Buffer
	if err := tr2.WriteJSON(&buf2); err != nil {
		t.Fatalf("re-serialize: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("round-trip is not byte-identical")
	}
}

func TestTraceEndEmptyStackNoOp(t *testing.T) {
	tr := NewTrace()
	tr.End(0, 1.0)
	if tr.Len() != 0 {
		t.Fatalf("End on empty track recorded %d events, want 0", tr.Len())
	}
}

func TestTraceCloseOpen(t *testing.T) {
	tr := NewTrace()
	tr.Begin(2, "outer", 0, nil)
	tr.Begin(2, "inner", 1, nil)
	tr.Begin(0, "run", 0, nil)
	tr.CloseOpen(5)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Fatalf("CloseOpen left an unbalanced trace: %v", err)
	}
	ev := tr.Events()
	// tids closed in sorted order; inner before outer within a tid.
	if ev[3].TID != 0 || ev[3].Name != "run" {
		t.Fatalf("first close = %+v, want run on tid 0", ev[3])
	}
	if ev[4].Name != "inner" || ev[5].Name != "outer" {
		t.Fatalf("tid 2 closed %q then %q, want inner then outer", ev[4].Name, ev[5].Name)
	}
	// Idempotent: nothing left open.
	n := tr.Len()
	tr.CloseOpen(6)
	if tr.Len() != n {
		t.Fatal("second CloseOpen recorded events")
	}
}

func TestTraceWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTrace().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace serialized as %q, want empty traceEvents array", buf.String())
	}
	if _, err := ReadTrace(&buf); err != nil {
		t.Fatalf("ReadTrace of empty trace: %v", err)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"not json", `{`, "decode trace"},
		{"unknown field", `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":0,"tid":0,"bogus":1}]}`, "decode trace"},
		{"empty name", `{"traceEvents":[{"name":"","ph":"i","ts":0,"pid":0,"tid":0}]}`, "empty name"},
		{"unknown phase", `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`, "unknown phase"},
		{"end without begin", `{"traceEvents":[{"name":"x","ph":"E","ts":0,"pid":0,"tid":0}]}`, "no open span"},
		{"end name mismatch", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},{"name":"b","ph":"E","ts":1,"pid":0,"tid":0}]}`, "does not match"},
		{"unbalanced", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0}]}`, "still open"},
		{"negative duration", `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0}]}`, "negative duration"},
		{"negative timestamp", `{"traceEvents":[{"name":"x","ph":"i","ts":-5,"pid":0,"tid":0}]}`, "negative timestamp"},
		{"cross-track end", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0},{"name":"a","ph":"E","ts":1,"pid":0,"tid":1}]}`, "no open span"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("ReadTrace accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
