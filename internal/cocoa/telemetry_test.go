package cocoa

import (
	"testing"

	"cocoa/internal/telemetry"
)

// A run with telemetry enabled must actually populate the stack's
// instruments — the registry names the ISSUE pins across sim, mac, and
// cocoa must move during a plain CoCoA run.
func TestTelemetryCountersPopulated(t *testing.T) {
	wasEnabled := telemetry.Default.Enabled()
	defer telemetry.Default.SetEnabled(wasEnabled)
	telemetry.Default.SetEnabled(true)

	before := telemetry.Default.Snapshot()
	if _, err := Run(testConfig()); err != nil {
		t.Fatal(err)
	}
	d := telemetry.Diff(before, telemetry.Default.Snapshot())
	counters := map[string]int64{}
	for _, c := range d.Counters {
		counters[c.Name] = c.Value
	}
	for _, name := range []string{
		"sim.events_dispatched",
		"mac.sent",
		"mac.delivered",
		"network.delivered",
		"cocoa.beacons_sent",
		"cocoa.beacons_applied",
		"cocoa.fixes",
	} {
		if counters[name] == 0 {
			t.Errorf("counter %s = 0 after a run, want > 0", name)
		}
	}
}
