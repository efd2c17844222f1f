package cluster_test

// The calendar-queue engine must be observationally identical to the
// binary-heap engine it replaced: both calendars implement the same
// strict (time, front, sequence) order, so whole topology runs — every
// preset, trace and generator workloads, warmup on and off, exact and
// bounded summaries — must come out bit-identical. This extends the
// repo's equivalence discipline (materialized seed runners == streaming
// Run) to the calendar-queue engine swap.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runPresetOn replays a generated workload through a preset topology on
// the given calendar backend.
func runPresetOn(t *testing.T, preset string, b sim.Backend, warmup float64, mode stats.Mode, seed int64) *cluster.TopologyResult {
	t.Helper()
	topo, ok := cluster.PresetTopology(preset)
	if !ok {
		t.Fatalf("unknown preset %q", preset)
	}
	sites := topo.Tiers[0].Sites
	src := cluster.Stream(cluster.GenSpec{
		Sites:       sites,
		Duration:    120,
		PerSiteRate: 9,
		Seed:        seed,
	})
	res, err := cluster.Run(src, topo, cluster.Options{
		Warmup:  warmup,
		Seed:    seed,
		Summary: mode,
		Backend: b,
	})
	if err != nil {
		t.Fatalf("preset %s on backend %v: %v", preset, b, err)
	}
	return res
}

// TestCalendarQueueMatchesHeapOnPresets: whole TopologyResults are
// bit-identical between the two engine backends across all shipped
// presets, seeds, warmup and summary modes.
func TestCalendarQueueMatchesHeapOnPresets(t *testing.T) {
	for _, preset := range cluster.TopologyPresets() {
		for _, seed := range []int64{1, 42} {
			for _, tc := range []struct {
				label  string
				warmup float64
				mode   stats.Mode
			}{
				{"exact", 0, stats.Exact},
				{"exact-warmup", 30, stats.Exact},
				{"bounded", 0, stats.Bounded},
				{"bounded-warmup", 30, stats.Bounded},
			} {
				name := preset + "/" + tc.label
				want := runPresetOn(t, preset, sim.BinaryHeap, tc.warmup, tc.mode, seed)
				got := runPresetOn(t, preset, sim.CalendarQueue, tc.warmup, tc.mode, seed)
				compareTopologyResults(t, name, want, got)
			}
		}
	}
}

// TestCalendarQueueMatchesHeapOnTrace: a materialized trace replayed
// through an overflow topology (spill edge, sampled detours, bounded
// queues) is bit-identical across backends.
func TestCalendarQueueMatchesHeapOnTrace(t *testing.T) {
	tr := cluster.Generate(cluster.GenSpec{Sites: 4, Duration: 150, PerSiteRate: 10, Seed: 3})
	topo := spillTopology(4)
	for _, mode := range []stats.Mode{stats.Exact, stats.Bounded} {
		opts := cluster.Options{Warmup: 20, Seed: 5, Summary: mode}
		hOpts := opts
		hOpts.Backend = sim.BinaryHeap
		want, err := cluster.Run(tr.Source(), topo, hOpts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.Run(tr.Source(), topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareTopologyResults(t, "trace/"+mode.String(), want, got)
	}
}
