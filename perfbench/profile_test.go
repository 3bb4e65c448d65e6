package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"cocoa/internal/bayes.(*Grid).ApplyBeacon":            "cocoa/internal/bayes",
		"cocoa/internal/runner.Map[go.shape.struct {}].func1": "cocoa/internal/runner",
		"runtime.mallocgc":                     "runtime",
		"encoding/json.(*encodeState).marshal": "encoding/json",
		"net/http.(*conn).serve":               "net/http",
		"main.spin":                            "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

var sink float64

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			sink = sink*1.0000001 + 1
		}
	}
}

// TestCPUSharesDecodesProfile decodes a real CPU profile of a busy loop and
// expects most of its samples in this package.
func TestCPUSharesDecodesProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	c := newCPUShares()
	if err := c.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c.total == 0 {
		t.Fatal("no CPU samples decoded")
	}
	if s := c.share("cocoa/perfbench"); s < 0.5 {
		t.Errorf("share of cocoa/perfbench = %.3f, want most samples; top: %s", s, c.top(5))
	}
}
