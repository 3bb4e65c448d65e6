package main

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cocoa/internal/serve"
)

func TestSmokeFamily(t *testing.T) {
	cases := []struct {
		path, want string
		wantErr    bool
	}{
		{"internal/scenario/testdata/golden_odometry.json", "odometry", false},
		{"golden_rf-only.json", "rf-only", false},
		{"/abs/path/golden_faults.json", "faults", false},
		{"notgolden.json", "", true},
		{"golden_.json", "", false}, // empty family; rejected later by QuickFamilies lookup
	}
	for _, tc := range cases {
		got, err := smokeFamily(tc.path)
		if (err != nil) != tc.wantErr {
			t.Errorf("smokeFamily(%q) err = %v, wantErr %v", tc.path, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("smokeFamily(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestRunSmokeEndToEnd exercises the full daemon path the way `make
// serve-smoke` does: real HTTP server, real simulation, byte-compare
// against the checked-in golden summary.
func TestRunSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden simulation; skipped in -short")
	}
	golden := filepath.Join("..", "..", "internal", "scenario", "testdata", "golden_odometry.json")
	old := stderr
	stderr = io.Discard
	defer func() { stderr = old }()
	if err := run([]string{"-smoke", golden, "-workers", "2"}); err != nil {
		t.Fatalf("smoke: %v", err)
	}
}

func TestRunSmokeUnknownFamily(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	if err := runSmoke(srv, "golden_nosuch.json"); err == nil || !strings.Contains(err.Error(), "unknown golden family") {
		t.Fatalf("err = %v, want unknown family", err)
	}
	if err := runSmoke(srv, "bogus.json"); err == nil {
		t.Fatal("expected error for non-golden path")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	old := stderr
	stderr = &buf
	defer func() { stderr = old }()
	if err := run([]string{"-nonsense"}); err == nil {
		t.Fatal("expected flag parse error")
	}
	if err := run([]string{"-addr", "256.0.0.1:99999"}); err == nil {
		t.Fatal("expected listen error for bad address")
	}
}

// headerLimitStatus sends a request whose headers exceed
// serve.NewHTTPServer's MaxHeaderBytes but not net/http's 1 MiB default,
// and returns the status: 431 only from a server with the tightened limit.
func headerLimitStatus(t *testing.T, baseURL string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pad", strings.Repeat("x", 256<<10))
	resp, err := (&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// All three listeners cocoad opens — the public API, the debug mux and the
// -smoke server — must carry serve.NewHTTPServer's limits.
func TestListenersLimitHeaders(t *testing.T) {
	old := stderr
	defer func() { stderr = old }()
	buf := &syncBuf{}
	stderr = buf
	base, done := startDaemon(t, buf, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-workers", "1")
	debug := regexp.MustCompile(`msg="debug server listening" addr=(http://[^ ]+)/debug/vars`).FindStringSubmatch(buf.String())
	if debug == nil {
		t.Fatalf("no debug listen line\n%s", buf.String())
	}
	status := map[string]int{"public": headerLimitStatus(t, base), "debug": headerLimitStatus(t, debug[1])}
	if err := sigterm(t, done); err != nil {
		t.Fatal(err)
	}

	// Probe the -smoke server the moment runSmoke announces it.
	smoke := regexp.MustCompile(`smoke: serving on (http://[^ ,]+),`)
	stderr = writerFunc(func(b []byte) (int, error) {
		if m := smoke.FindSubmatch(b); m != nil {
			status["smoke"] = headerLimitStatus(t, string(m[1]))
		}
		return len(b), nil
	})
	golden := filepath.Join("..", "..", "internal", "scenario", "testdata", "golden_odometry.json")
	if err := run([]string{"-smoke", golden, "-workers", "1"}); err != nil {
		t.Fatalf("smoke: %v", err)
	}
	for _, name := range []string{"public", "debug", "smoke"} {
		if status[name] != http.StatusRequestHeaderFieldsTooLarge {
			t.Errorf("%s listener: oversized headers got status %d, want 431", name, status[name])
		}
	}
}
