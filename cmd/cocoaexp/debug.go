package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cocoa/internal/serve"
	"cocoa/internal/telemetry"
)

// startDebugServer serves the shared diagnostics mux (expvar + pprof,
// see internal/serve.DebugMux) on its own listener, returning the actual
// listen address so ":0" works in tests. The server runs for the
// remaining process lifetime; there is nothing to shut down cleanly
// mid-suite.
func startDebugServer(addr string) (string, error) {
	return serve.StartDebugServer(addr)
}

// writeTelemetrySnapshot serializes the final registry state to path as
// indented JSON. Snapshot ordering is name-sorted, so repeated runs of
// the same suite produce diffable files.
func writeTelemetrySnapshot(path string) error {
	b, err := json.MarshalIndent(telemetry.Default.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry snapshot: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry snapshot: %w", err)
	}
	return nil
}

// slotDependent counters measure memory reuse, not simulation work: they
// depend on which run slot a job drew and what earlier sweeps left behind.
var slotDependent = map[string]bool{"cocoa.scratch_reuse": true, "sim.arena_chunks": true}

// printTelemetryDelta appends one experiment's instrument deltas to the
// progress stream. Only sim-deterministic quantities are printed — non-
// slotDependent counters and histogram counts/means, never wall-clock
// span totals — so the table is identical at any parallelism level.
func printTelemetryDelta(w io.Writer, d telemetry.Snapshot) {
	wrote := false
	for _, c := range d.Counters {
		if c.Value == 0 || slotDependent[c.Name] {
			continue
		}
		if !wrote {
			fmt.Fprintln(w, "  telemetry:")
			wrote = true
		}
		fmt.Fprintf(w, "    %-32s %d\n", c.Name, c.Value)
	}
	for _, h := range d.Histograms {
		if h.Count == 0 {
			continue
		}
		if !wrote {
			fmt.Fprintln(w, "  telemetry:")
			wrote = true
		}
		fmt.Fprintf(w, "    %-32s count=%d mean=%.2f\n", h.Name, h.Count, h.Sum/float64(h.Count))
	}
}
