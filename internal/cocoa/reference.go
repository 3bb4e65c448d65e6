package cocoa

import "context"

// Reference selects the retained reference implementations that the
// production fast paths are equivalence-checked against. It is a
// module-internal test hook, not a deployment knob: the zero value (the
// production paths) is the only setting reachable through the public API
// or the wire.
type Reference struct {
	// ScanIndex makes the MAC examine every station for every frame
	// (mac.IndexScan) instead of consulting the spatial grid. Results are
	// byte-identical (DESIGN.md §12).
	ScanIndex bool
	// EagerStats makes the Bayesian grid recompute every statistics
	// readout with a full-grid scan (bayes.StatsEager) instead of reading
	// its incremental accumulators. Readouts agree within 1e-9 (DESIGN.md
	// §13).
	EagerStats bool
}

// WithReference returns a copy of cfg that runs the reference paths in ref,
// for callers that build a team directly.
func WithReference(cfg Config, ref Reference) Config {
	cfg.ref = ref
	return cfg
}

type referenceKey struct{}

// ReferenceContext returns a child of ctx under which RunContext and
// RunScratch apply ref to every config they run, so a whole experiment
// sweep selects the reference paths without an Options field.
func ReferenceContext(ctx context.Context, ref Reference) context.Context {
	return context.WithValue(ctx, referenceKey{}, ref)
}
