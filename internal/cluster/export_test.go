package cluster

// Test-only entry points for the external cluster_test package.
var (
	// RunBarrier is the sharded replay's barrier reference (runBarrier).
	RunBarrier = runBarrier
	// RunPipelinedRing is RunPipelined with an explicit per-shard ring
	// capacity, for backpressure and memory-bound tests.
	RunPipelinedRing = runPipelined
)

// BoundaryRing is the ring capacity RunPipelined uses.
const BoundaryRing = boundaryRing
