package cluster

import "repro/internal/sim"

// Test-only entry points for the external cluster_test package.
var (
	// RunBarrier is the sharded replay's barrier reference (runBarrier).
	RunBarrier = runBarrier
	// RunPipelinedRing is RunPipelined with an explicit per-shard ring
	// capacity, for backpressure and memory-bound tests.
	RunPipelinedRing = runPipelined
	// WaitGoroutines fails a test whose run left goroutines behind.
	WaitGoroutines = waitGoroutines
)

// BoundaryRing is the ring capacity RunPipelined uses.
const BoundaryRing = boundaryRing

// WithBackend returns opts with the engine calendar set to b.
func WithBackend(opts Options, b sim.Backend) Options {
	opts.backend = b
	return opts
}
