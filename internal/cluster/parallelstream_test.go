package cluster_test

// ParallelStream must be observationally identical to serial Stream:
// same per-site seed derivation, same (Time, Site) merge order, same
// generation-order ties — for every scenario family, at every worker
// count. These tests are part of the raced CI suite, so the worker
// rings, watermarks and the early-abandon path also run under the race
// detector.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// parallelWorkerCounts covers the degenerate serial fallback (1), true
// parallelism (2, 4) and a count exceeding the scenario site counts (8,
// which clamps).
var parallelWorkerCounts = []int{1, 2, 4, 8}

// TestParallelStreamMatchesStream: the merged parallel record sequence
// equals the serial one element for element, for every scenario family
// and worker count.
func TestParallelStreamMatchesStream(t *testing.T) {
	for name, mk := range streamScenarios(t) {
		for _, workers := range parallelWorkerCounts {
			workers := workers
			t.Run(fmt.Sprintf("%s/workers-%d", name, workers), func(t *testing.T) {
				want := cluster.Generate(mk())
				if want.Len() == 0 {
					t.Fatal("scenario generated no records; test is vacuous")
				}
				src := cluster.ParallelStream(mk(), workers)
				for i, rec := range want.Records {
					got, ok := src.Next()
					if !ok {
						t.Fatalf("workers=%d: stream ended at record %d of %d", workers, i, want.Len())
					}
					if got != rec {
						t.Fatalf("workers=%d: record %d diverges: parallel %+v, serial %+v",
							workers, i, got, rec)
					}
				}
				if rec, ok := src.Next(); ok {
					t.Fatalf("workers=%d: stream yielded %+v past the %d generated records",
						workers, rec, want.Len())
				}
			})
		}
	}
}

// TestGenerateParallelMatchesGenerate: the trace drained from
// ParallelStream with four generator workers — the path edgesim's
// single-engine topology replay takes on a 4-CPU machine — equals the
// Generate oracle's.
func TestGenerateParallelMatchesGenerate(t *testing.T) {
	for name, mk := range streamScenarios(t) {
		t.Run(name, func(t *testing.T) {
			want := cluster.Generate(mk())
			got := &cluster.WorkloadTrace{Sites: mk().Sites}
			src := cluster.ParallelStream(mk(), 4)
			for rec, ok := src.Next(); ok; rec, ok = src.Next() {
				got.Records = append(got.Records, rec)
			}
			if got.Sites != want.Sites || got.Len() != want.Len() {
				t.Fatalf("parallel trace %d records/%d sites, serial %d/%d",
					got.Len(), got.Sites, want.Len(), want.Sites)
			}
			for i := range want.Records {
				if got.Records[i] != want.Records[i] {
					t.Fatalf("record %d diverges: %+v vs %+v", i, got.Records[i], want.Records[i])
				}
			}
		})
	}
}

// TestParallelStreamTopologyEquivalence: whole topology runs fed through
// ParallelStream are bit-identical to serial-stream runs, across warmup
// and summary modes.
func TestParallelStreamTopologyEquivalence(t *testing.T) {
	for name, mk := range streamScenarios(t) {
		for _, tc := range []struct {
			label  string
			warmup float64
			mode   stats.Mode
		}{
			{"exact-warmup", 40, stats.Exact},
			{"bounded", 0, stats.Bounded},
		} {
			t.Run(name+"/"+tc.label, func(t *testing.T) {
				topo := spillTopology(mk().Sites)
				run := func(workers int) *cluster.TopologyResult {
					opts := cluster.Options{Warmup: tc.warmup, Seed: 5, Summary: tc.mode}
					res, err := cluster.Run(cluster.ParallelStream(mk(), workers), topo, opts)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := run(0)
				if want.Offered == 0 {
					t.Fatal("no requests offered; test is vacuous")
				}
				for _, workers := range []int{2, 4} {
					compareTopologyResults(t, name+"/"+tc.label, want, run(workers))
				}
			})
		}
	}
}

// TestParallelStreamStop: a consumer that abandons the stream early can
// release the generator workers via Stop — no deadlock, no further
// records — and a fully drained source tolerates a redundant Stop.
func TestParallelStreamStop(t *testing.T) {
	mk := streamScenarios(t)["renewal"]
	src := cluster.ParallelStream(mk(), 4)
	ps, ok := src.(cluster.ParallelSource)
	if !ok {
		t.Fatal("parallel source does not expose Stop")
	}
	for i := 0; i < 10; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("stream ended at record %d; scenario too small for the abandon test", i)
		}
	}
	ps.Stop()
	if _, ok := src.Next(); ok {
		t.Error("stopped source yielded another record")
	}

	drained := cluster.ParallelStream(mk(), 2)
	for {
		if _, ok := drained.Next(); !ok {
			break
		}
	}
	drained.(cluster.ParallelSource).Stop() // must be a no-op after drain
}

// TestParallelStreamAutoWorkers: a worker count of 0 or 1 (1 is what
// edgesim's single-engine replay passes on a single-CPU machine)
// returns the serial Stream itself — no workers to stop — with the
// serial sequence.
func TestParallelStreamAutoWorkers(t *testing.T) {
	mk := streamScenarios(t)["nhpp"]
	want := cluster.Generate(mk())
	for _, workers := range []int{0, 1} {
		src := cluster.ParallelStream(mk(), workers)
		if _, ok := src.(cluster.ParallelSource); ok {
			t.Fatalf("workers=%d: got a parallel source, want the serial Stream", workers)
		}
		for i, rec := range want.Records {
			got, ok := src.Next()
			if !ok {
				t.Fatalf("workers=%d: stream ended at record %d of %d", workers, i, want.Len())
			}
			if got != rec {
				t.Fatalf("workers=%d: record %d diverges: %+v vs %+v", workers, i, got, rec)
			}
		}
		if _, ok := src.Next(); ok {
			t.Fatalf("workers=%d: stream ran past the generated records", workers)
		}
	}
}

// abandonSpec is a 64-site workload long enough that four generator
// workers fill their rings and park. Replayed into a 3-site home tier,
// its first record for a site >= 3 fails the run part-way.
func abandonSpec() cluster.GenSpec {
	return cluster.GenSpec{Sites: 64, Duration: 1000, PerSiteRate: 5, Seed: 3}
}

// TestRunStopsAbandonedParallelStream: a Run that fails before draining
// a ParallelStream source releases its generator workers.
func TestRunStopsAbandonedParallelStream(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		_, err := cluster.Run(cluster.ParallelStream(abandonSpec(), 4), spillTopology(3), cluster.Options{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "site") {
			t.Fatalf("want an out-of-range site error, got %v", err)
		}
	}
	cluster.WaitGoroutines(t, before)
}

// TestRunBroadcastStopsAbandonedParallelStream: when every variant of a
// broadcast fails early, the producer stops pulling and releases the
// ParallelStream source's workers; so does a call with no variants.
func TestRunBroadcastStopsAbandonedParallelStream(t *testing.T) {
	before := runtime.NumGoroutine()
	variants := []cluster.Variant{
		{Label: "a", Topology: spillTopology(3), Opts: cluster.Options{Seed: 1}},
		{Label: "b", Topology: spillTopology(3), Opts: cluster.Options{Seed: 2}},
	}
	for i := 0; i < 3; i++ {
		if _, err := cluster.RunBroadcast(cluster.ParallelStream(abandonSpec(), 4), variants, 0); err == nil {
			t.Fatal("broadcast into a 3-site tier accepted 64-site records")
		}
	}
	if _, err := cluster.RunBroadcast(cluster.ParallelStream(abandonSpec(), 4), nil, 0); err == nil {
		t.Fatal("broadcast with no variants succeeded")
	}
	cluster.WaitGoroutines(t, before)
}
