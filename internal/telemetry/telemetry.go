// Package telemetry is the runtime observability layer of the CoCoA stack:
// a process-wide registry of named counters, gauges, fixed-bucket
// histograms, and spans that the simulation engine, the MAC, the NIC/fault
// layer, the Bayesian localizer, and the experiment runner all report into.
//
// Design constraints, in priority order:
//
//  1. Zero behavioral coupling. Telemetry only ever *records*; nothing in
//     the stack reads a telemetry value to make a decision, so simulation
//     results are byte-identical with telemetry enabled or disabled, at any
//     parallelism (the telemetry row of resultVariants in
//     internal/scenario/equivalence_test.go pins this).
//  2. No-op when disabled. The registry starts disabled; every record
//     operation first loads one shared atomic flag and returns. Experiment
//     sweeps that never ask for telemetry pay one predictable branch per
//     instrumented site.
//  3. Allocation-free when enabled. Record operations are plain atomic
//     adds (CAS loops for float accumulators); no maps, no interface
//     boxing, no closures on the hot path. Benchmarks in this package
//     enforce 0 allocs/op for every instrument.
//
// Instruments are registered once (package-level vars in the instrumented
// packages, resolved against Default at init) and then shared by every
// concurrent run in the process: a parallel sweep aggregates into the same
// counters a serial one does. Snapshot returns a stable, name-sorted view
// suitable for JSON serialization, expvar publication, and delta tables.
//
// Spans support two clocks. Start/End measure wall time (worker queue
// waits, per-run wall time). StartSim/EndSim measure *virtual* time: the
// caller passes sim.Now() at both edges, so a span can report how much
// simulated time an activity covered (e.g. a beacon window) even though
// the engine executes it in microseconds of wall time.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds the process's named instruments. Metric registration
// (Counter, Gauge, ...) locks; recording never does.
type Registry struct {
	enabled atomic.Bool

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	spans      map[string]*Span
}

// Default is the process-wide registry every instrumented package reports
// into. cmd/cocoaexp enables it when -telemetry or -debug-addr is given.
var Default = NewRegistry()

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		spans:      map[string]*Span{},
	}
}

// SetEnabled turns recording on or off. Disabling does not clear recorded
// values; Reset does.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether recording is on.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named monotonic counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{on: &r.enabled}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{on: &r.enabled}
	r.gauges[name] = g
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given ascending upper bounds on first use (an implicit +Inf bucket is
// appended). Later calls ignore bounds and return the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	h := &Histogram{
		on:      &r.enabled,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// Span returns the named span, creating it on first use.
func (r *Registry) Span(name string) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.spans[name]; ok {
		return s
	}
	s := &Span{on: &r.enabled}
	r.spans[name] = s
	return s
}

// Reset zeroes every registered instrument. The instruments themselves
// stay registered (package-level holders remain valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
	for _, s := range r.spans {
		s.count.Store(0)
		s.totalNs.Store(0)
		s.maxNs.Store(0)
	}
}

// Counter is a monotonic event count.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c.on.Load() {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0; monotonicity is the caller's contract).
func (c *Counter) Add(n int64) {
	if c.on.Load() {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g.on.Load() {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g.on.Load() {
		g.v.Add(delta)
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: bounds[i] is the inclusive
// upper edge of bucket i, and one final bucket catches everything above
// the last bound. Sum accumulates the raw observations.
type Histogram struct {
	on      *atomic.Bool
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !h.on.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveInt records one integer value (sugar for depth-style metrics).
func (h *Histogram) ObserveInt(v int) { h.Observe(float64(v)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Span accumulates durations of a named activity: count, total, and max.
// Wall-clock timings come from Start/End; virtual-clock (sim-time) timings
// from StartSim/EndSim with the caller's sim.Now() values.
type Span struct {
	on      *atomic.Bool
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

// Timing is an in-flight span measurement. The zero Timing (returned when
// the registry is disabled) makes End a no-op.
type Timing struct {
	s    *Span
	wall time.Time
	sim  float64
}

// Start begins a wall-clock timing.
func (s *Span) Start() Timing {
	if !s.on.Load() {
		return Timing{}
	}
	return Timing{s: s, wall: time.Now()}
}

// End completes a wall-clock timing.
func (t Timing) End() {
	if t.s == nil {
		return
	}
	t.s.record(time.Since(t.wall).Nanoseconds())
}

// StartSim begins a virtual-clock timing at the given sim time (seconds).
func (s *Span) StartSim(now float64) Timing {
	if !s.on.Load() {
		return Timing{}
	}
	return Timing{s: s, sim: now}
}

// EndSim completes a virtual-clock timing at the given sim time. Durations
// are stored in nanoseconds of simulated time.
func (t Timing) EndSim(now float64) {
	if t.s == nil {
		return
	}
	t.s.record(int64((now - t.sim) * 1e9))
}

// Observe records an externally measured wall duration.
func (s *Span) Observe(d time.Duration) {
	if s.on.Load() {
		s.record(d.Nanoseconds())
	}
}

func (s *Span) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.count.Add(1)
	s.totalNs.Add(ns)
	for {
		cur := s.maxNs.Load()
		if ns <= cur || s.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of completed timings.
func (s *Span) Count() int64 { return s.count.Load() }

// TotalNs returns the accumulated duration in nanoseconds.
func (s *Span) TotalNs() int64 { return s.totalNs.Load() }

// atomicFloat is a CAS-accumulated float64 (allocation-free).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Snapshot is a stable-ordered view of a registry: every category sorted
// by name, so serializing the same state twice yields identical bytes.
type Snapshot struct {
	Enabled    bool             `json:"enabled"`
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
	Spans      []SpanValue      `json:"spans"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketValue is one histogram bucket: the count of observations at or
// below Le that fell above the previous bound. The last bucket's Le is
// +Inf, serialized as the string "+Inf".
type BucketValue struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders +Inf as a string (JSON has no Inf literal).
func (b BucketValue) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.Le, 1) {
		return json.Marshal(struct {
			Le    string `json:"le"`
			Count int64  `json:"count"`
		}{"+Inf", b.Count})
	}
	type plain BucketValue
	return json.Marshal(plain(b))
}

// UnmarshalJSON accepts both the numeric form and the "+Inf" string, so
// serialized snapshots round-trip.
func (b *BucketValue) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count int64           `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var s string
	if err := json.Unmarshal(raw.Le, &s); err == nil {
		if s != "+Inf" {
			return fmt.Errorf("telemetry: bad bucket bound %q", s)
		}
		b.Le = math.Inf(1)
		return nil
	}
	return json.Unmarshal(raw.Le, &b.Le)
}

// HistogramValue is one histogram's snapshot.
type HistogramValue struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketValue `json:"buckets"`
}

// SpanValue is one span's snapshot. Totals are nanoseconds — wall
// nanoseconds for Start/End spans, simulated nanoseconds for
// StartSim/EndSim spans.
type SpanValue struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// Snapshot captures every instrument's current value, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Enabled:    r.enabled.Load(),
		Counters:   make([]CounterValue, 0, len(r.counters)),
		Gauges:     make([]GaugeValue, 0, len(r.gauges)),
		Histograms: make([]HistogramValue, 0, len(r.histograms)),
		Spans:      make([]SpanValue, 0, len(r.spans)),
	}
	for name, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: c.v.Load()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Value: g.v.Load()})
	}
	for name, h := range r.histograms {
		hv := HistogramValue{
			Name:    name,
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
			Buckets: make([]BucketValue, len(h.buckets)),
		}
		for i := range h.buckets {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hv.Buckets[i] = BucketValue{Le: le, Count: h.buckets[i].Load()}
		}
		snap.Histograms = append(snap.Histograms, hv)
	}
	for name, s := range r.spans {
		snap.Spans = append(snap.Spans, SpanValue{
			Name:    name,
			Count:   s.count.Load(),
			TotalNs: s.totalNs.Load(),
			MaxNs:   s.maxNs.Load(),
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].Name < snap.Spans[j].Name })
	return snap
}

// Diff returns after minus before: counter values, histogram counts and
// span accumulators subtract; gauges keep their after value (a gauge is a
// level, not a flow). Instruments present only in after carry over whole.
// Both snapshots must come from the same registry for names to align.
func Diff(before, after Snapshot) Snapshot {
	out := Snapshot{Enabled: after.Enabled}
	prevC := map[string]int64{}
	for _, c := range before.Counters {
		prevC[c.Name] = c.Value
	}
	for _, c := range after.Counters {
		out.Counters = append(out.Counters, CounterValue{Name: c.Name, Value: c.Value - prevC[c.Name]})
	}
	out.Gauges = append(out.Gauges, after.Gauges...)
	prevH := map[string]HistogramValue{}
	for _, h := range before.Histograms {
		prevH[h.Name] = h
	}
	for _, h := range after.Histograms {
		d := HistogramValue{
			Name:    h.Name,
			Count:   h.Count,
			Sum:     h.Sum,
			Buckets: append([]BucketValue(nil), h.Buckets...),
		}
		if p, ok := prevH[h.Name]; ok && len(p.Buckets) == len(h.Buckets) {
			d.Count -= p.Count
			d.Sum -= p.Sum
			for i := range d.Buckets {
				d.Buckets[i].Count -= p.Buckets[i].Count
			}
		}
		out.Histograms = append(out.Histograms, d)
	}
	prevS := map[string]SpanValue{}
	for _, s := range before.Spans {
		prevS[s.Name] = s
	}
	for _, s := range after.Spans {
		p := prevS[s.Name]
		out.Spans = append(out.Spans, SpanValue{
			Name:    s.Name,
			Count:   s.Count - p.Count,
			TotalNs: s.TotalNs - p.TotalNs,
			MaxNs:   s.MaxNs, // max does not subtract; keep the running max
		})
	}
	return out
}
