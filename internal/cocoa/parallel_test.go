package cocoa

import (
	"fmt"
	"testing"
)

func TestUpdateWorkersValidate(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative UpdateWorkers accepted")
	}
	for _, w := range []int{0, 1, 8} {
		cfg.UpdateWorkers = w
		if err := cfg.Validate(); err != nil {
			t.Errorf("UpdateWorkers=%d rejected: %v", w, err)
		}
	}
}

// The queue must be empty at every localizer readout: a run that ends
// mid-window (beacons queued, no endWindow) still applies them in finish.
func TestPendingBeaconsFlushedAtFinish(t *testing.T) {
	cfg := testConfig()
	// End the run one second into a transmit window.
	cfg.DurationS = cfg.BeaconPeriodS*4 + 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BeaconsApplied == 0 {
		t.Fatal("no beacons applied")
	}
}

func ExampleConfig_updateWorkers() {
	cfg := DefaultConfig()
	cfg.UpdateWorkers = 1 // force serial grid updates
	fmt.Println(cfg.Validate())
	// Output: <nil>
}
