package cocoa

import (
	"bytes"
	"testing"

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
