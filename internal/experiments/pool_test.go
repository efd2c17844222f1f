package experiments

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn with GOMAXPROCS, forEach's pool size, set to n and
// restores the previous setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestForEachCoversAllIndices: every index runs exactly once at any pool
// size.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 37
		counts := make([]int32, n)
		withProcs(workers, func() {
			forEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		})
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	// n <= 0 must be a no-op.
	forEach(0, func(i int) { t.Error("fn called for n=0") })
}

// TestForEachBoundsConcurrency: the pool actually runs work concurrently
// but never exceeds its bound.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 24
	var cur, peak int32
	var mu sync.Mutex
	withProcs(workers, func() {
		forEach(n, func(i int) {
			c := atomic.AddInt32(&cur, 1)
			mu.Lock()
			if c > peak {
				peak = c
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt32(&cur, -1)
		})
	})
	if peak > workers {
		t.Errorf("observed %d concurrent workers, bound is %d", peak, workers)
	}
	if peak < 2 {
		t.Errorf("pool never ran concurrently (peak %d); expected >= 2", peak)
	}
}

// TestRunSweepParallelMatchesSerial: a multi-point utilization sweep run
// through the worker pool is identical, point for point, to the serial
// order under a fixed seed — the contract that makes the parallel
// runner safe to adopt everywhere.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	cfg := paperPair("typical-25ms", 1)
	cfg.Rates = []float64{6, 8, 9, 10, 11}
	cfg.Duration = 150
	cfg.Warmup = 15
	cfg.Seed = 77

	var a, b TopologySweepResult
	var errA, errB error
	withProcs(1, func() { a, errA = RunTopologySweep(cfg) })
	withProcs(4, func() { b, errB = RunTopologySweep(cfg) })
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if !reflect.DeepEqual(a.Points[i], b.Points[i]) || !reflect.DeepEqual(a.Rivals[0][i], b.Rivals[0][i]) {
			t.Errorf("point %d differs:\n  serial   %+v %+v\n  parallel %+v %+v",
				i, a.Points[i], a.Rivals[0][i], b.Points[i], b.Rivals[0][i])
		}
	}
}

// Paired edge/cloud determinism is implied by the sweep test above (each
// point replays its trace through both deployments in one
// cluster.RunBroadcast pass), but the replication path has its own
// aggregation order to defend.
func TestReplicatedSweepParallelMatchesSerial(t *testing.T) {
	cfg := paperPair("typical-25ms", 1)
	cfg.Rates = []float64{8, 10}
	cfg.Duration = 120
	cfg.Warmup = 12
	cfg.Seed = 5

	var a, b []ReplicatedPoint
	var errA, errB error
	withProcs(1, func() { a, errA = RunReplicatedSweep(cfg, 5) })
	withProcs(4, func() { b, errB = RunReplicatedSweep(cfg, 5) })
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("replicated point %d differs:\n  serial   %+v\n  parallel %+v", i, a[i], b[i])
		}
	}

	var ra, ca, rb, cb float64
	var oka, okb bool
	withProcs(1, func() { ra, ca, oka, errA = CrossoverCI(cfg, Mean, 4) })
	withProcs(4, func() { rb, cb, okb, errB = CrossoverCI(cfg, Mean, 4) })
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if ra != rb || ca != cb || oka != okb {
		t.Errorf("CrossoverCI diverged: serial (%v, %v, %v) vs parallel (%v, %v, %v)",
			ra, ca, oka, rb, cb, okb)
	}
}
