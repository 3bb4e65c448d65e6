package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

// -progress ends each matched experiment with its final run pair and a
// newline (failures matches rob-failures, 3 runs, and rob-replication, 5
// runs), and the redraw goroutine is gone once run returns: nothing
// reaches stderr afterwards (a late write would also trip -race).
func TestProgressPrinterFinalPairs(t *testing.T) {
	oldStderr := stderr
	var errBuf bytes.Buffer
	stderr = &errBuf
	defer func() { stderr = oldStderr }()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-fig", "failures", "-progress"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := errBuf.String()
	time.Sleep(3 * progressInterval)
	if errBuf.String() != got {
		t.Fatalf("stderr grew after run returned: %q", errBuf.String()[len(got):])
	}
	lines := strings.SplitAfter(got, "\n")
	if len(lines) != 3 || lines[2] != "" {
		t.Fatalf("stderr = %q, want two newline-terminated progress lines", got)
	}
	for i, want := range []string{"run 3/3\n", "run 5/5\n"} {
		if !strings.HasSuffix(lines[i], want) {
			t.Errorf("line %d = %q, want it to end with %q", i, lines[i], want)
		}
		if !regexp.MustCompile(`^(\r  run \d+/\d+ *)+\n$`).MatchString(lines[i]) {
			t.Errorf("line %d = %q is not a sequence of \\r-redrawn run pairs", i, lines[i])
		}
	}
}
