GO ?= go

.PHONY: all build test vet race fuzz shuffle check bench bench-smoke \
	bench-json cover cover-check bench-compare serve-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fuzz gives each native fuzz target a short budget beyond its checked-in
# corpus. Go only allows one -fuzz per invocation, so targets run in
# sequence. Longer sessions: go test -fuzz=FuzzX -fuzztime=5m ./internal/...
FUZZTIME ?= 5s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzGilbertElliott -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz=FuzzEventlogRoundTrip -fuzztime=$(FUZZTIME) ./internal/eventlog
	$(GO) test -run='^$$' -fuzz=FuzzTabulateAgreement -fuzztime=$(FUZZTIME) ./internal/caltable
	$(GO) test -run='^$$' -fuzz=FuzzGridIndex -fuzztime=$(FUZZTIME) ./internal/mac
	$(GO) test -run='^$$' -fuzz=FuzzGridStats -fuzztime=$(FUZZTIME) ./internal/bayes
	$(GO) test -run='^$$' -fuzz=FuzzApplyBeaconBitwise -fuzztime=$(FUZZTIME) ./internal/bayes
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(FUZZTIME) ./internal/checkpoint

# shuffle reruns the stateful suites twice in random order: the runner,
# serve, scenario and cocoaexp packages keep cross-test state (scratch
# pools, a process-global telemetry registry the result-variants table and
# the cocoaexp delta tables diff, daemon state dirs, cocoaexp's swapped
# stderr and its progress printer), so any hidden test-order dependence
# shows up here instead of flaking in CI.
shuffle:
	$(GO) test -count=2 -shuffle=on ./internal/runner ./internal/serve ./internal/scenario ./cmd/cocoaexp

# cover prints per-package statement coverage; cover-check additionally
# enforces the floors in coverage_floor.txt (see cmd/covergate). Floors
# ratchet upward as tests improve.
cover:
	$(GO) test -cover ./...

cover-check:
	$(GO) test -cover ./... | $(GO) run ./cmd/covergate -floors coverage_floor.txt

# serve-smoke boots the cocoad service on a loopback port, submits the
# odometry golden family through the real HTTP API, and requires the
# served result's summary to be byte-identical to the checked-in golden
# file — the end-to-end proof that the service layer adds scheduling,
# never semantics.
serve-smoke:
	$(GO) run ./cmd/cocoad -smoke internal/scenario/testdata/golden_odometry.json

# check is the gate a change must pass before it lands: static analysis,
# the full suite under the race detector (the experiment engine fans runs
# out across goroutines, so -race is not optional here), a short fuzz pass
# over the serialization/loss-channel/LUT targets, a one-iteration
# benchmark smoke so bench-only code paths cannot rot between bench runs,
# the per-package coverage floor gate, the cocoad end-to-end smoke, the
# headline-benchmark regression gate, and the shuffled reruns of the
# order-sensitive service suites.
check: vet race fuzz shuffle bench-smoke cover-check serve-smoke bench-compare

# bench regenerates every paper figure at reduced scale, including the
# serial-vs-parallel engine pair (BenchmarkReplication*).
bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark for exactly one iteration —
# a correctness gate, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-json refreshes the checked-in benchmark trajectory
# from a full -benchmem run; see README "Benchmark tracking" for the format.
BENCHJSON_OUT ?= BENCH_PR10.json

bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -o $(BENCHJSON_OUT)

# bench-compare re-times just the headline benchmarks (the root package's
# end-to-end paths plus the telemetry layer's disabled-path record costs)
# and fails on a >25% regression against the checked-in baseline — in
# ns/op, and in B/op / allocs/op wherever the baseline carries -benchmem
# columns.
BENCH_BASELINE ?= BENCH_PR10.json

bench-compare:
	{ $(GO) test -run='^$$' -bench='^(BenchmarkReplicationSerial|BenchmarkFig4OdometryOnly|BenchmarkSwarmSim1000)$$' -benchmem . && \
	  $(GO) test -run='^$$' -bench='^(BenchmarkCounterIncDisabled|BenchmarkHistogramObserveDisabled|BenchmarkSpanSimDisabled)$$' -benchmem ./internal/telemetry ; } \
		| $(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE)

clean:
	$(GO) clean ./...
