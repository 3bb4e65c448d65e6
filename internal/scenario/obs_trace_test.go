package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cocoa/internal/cocoa"
	"cocoa/internal/obs"
)

// Every golden figure family must export a trace that survives the strict
// decoder: balanced begin/end spans, known phases, sane timestamps — the
// file a user hands to Perfetto is well-formed by construction.
func TestGoldenFamiliesTraceRoundTrip(t *testing.T) {
	for name, cfg := range QuickFamilies() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.Trace = obs.NewTrace()
			if _, err := cocoa.Run(cfg); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cfg.Trace.WriteJSON(&buf); err != nil {
				t.Fatalf("WriteJSON: %v", err)
			}
			events, err := obs.ReadTrace(&buf)
			if err != nil {
				t.Fatalf("trace fails the strict decoder: %v", err)
			}
			// Every family runs the sim loop; the run span must be there,
			// and all RF families must show windows and belief updates.
			names := map[string]int{}
			for _, ev := range events {
				names[ev.Name]++
			}
			if names["run"] == 0 {
				t.Error("no run span recorded")
			}
			if cfg.Mode != cocoa.ModeOdometryOnly {
				if names["sampling-window"] == 0 {
					t.Error("no sampling-window spans recorded")
				}
				if names["mac-frame"] == 0 {
					t.Error("no mac-frame events recorded")
				}
				if names["belief-update"] == 0 {
					t.Error("no belief-update events recorded")
				}
			}
		})
	}
}

// TestTraceDigests pins the exported trace bytes of every golden family,
// plain and with a checkpoint every 7 ticks (which adds checkpoint
// instants): SHA-256 and length of WriteJSON, one "case sha256 bytes"
// line per case in testdata/trace_digests.txt. Any change to which trace
// records a run emits, their order, or their arguments shows up here.
// Regenerate deliberately with
//
//	go test ./internal/scenario/ -run TestTraceDigests -update
func TestTraceDigests(t *testing.T) {
	var lines []string
	for name, cfg := range QuickFamilies() {
		for _, every := range []int{0, 7} {
			cfg := cfg
			key := name
			if every > 0 {
				key = fmt.Sprintf("%s/checkpoint-%d", name, every)
				cfg.Checkpoint = cocoa.CheckpointSpec{EveryTicks: every, Dir: t.TempDir()}
			}
			cfg.Trace = obs.NewTrace()
			if _, err := cocoa.Run(cfg); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var buf bytes.Buffer
			if err := cfg.Trace.WriteJSON(&buf); err != nil {
				t.Fatalf("%s: WriteJSON: %v", key, err)
			}
			lines = append(lines, fmt.Sprintf("%s %x %d", key, sha256.Sum256(buf.Bytes()), buf.Len()))
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "trace_digests.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("trace digests drifted from %s\ngot:\n%swant:\n%s", path, got, want)
	}
}
