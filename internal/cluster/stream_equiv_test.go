package cluster_test

// Streaming generator sources must be observationally identical to the
// materialized Generate path: for every scenario family the paper uses
// (renewal, MMPP bursts, NHPP envelopes, batch arrivals, CSV-decoded
// envelopes, the synthetic Azure trace), Stream(spec) yields the exact
// record sequence Generate(spec).Source() replays, and whole topology
// runs driven by either source are bit-identical across warmup and
// summary modes. A second suite pins the O(1)-memory property: event
// calendar size, allocation counts and allocated bytes stay
// constant-bounded as the generated request count grows 10x/100x.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// csvFixture is a small site-series envelope in the WriteSiteSeriesCSV
// interchange format (3 sites, 4 bins of 30s).
const csvFixture = `bin,site0,site1,site2
0,120,40,10
1,200,80,0
2,60,150,30
3,90,20,20
`

// streamScenarios returns one fresh-spec builder per scenario family.
// Builders must return fresh arrival processes every call: the
// processes are stateful and consumed by a single Stream/Generate.
func streamScenarios(t *testing.T) map[string]func() cluster.GenSpec {
	t.Helper()
	fixtureProcs := func() []workload.ArrivalProcess {
		// csvFixture's envelope: 3 sites, 4 bins of 30 s.
		series := []trace.SiteSeries{
			{Site: 0, BinWidth: 30, Counts: []float64{120, 200, 60, 90}},
			{Site: 1, BinWidth: 30, Counts: []float64{40, 80, 150, 20}},
			{Site: 2, BinWidth: 30, Counts: []float64{10, 0, 30, 20}},
		}
		return trace.ToArrivalProcesses(series, true)
	}
	azureProcs := func() []workload.ArrivalProcess {
		spec := trace.DefaultAzureSpec()
		spec.Sites = 5
		spec.Minutes = 4
		spec.Seed = 33
		return trace.ToArrivalProcesses(trace.GenerateAzure(spec), false)
	}
	return map[string]func() cluster.GenSpec{
		"renewal": func() cluster.GenSpec {
			return cluster.GenSpec{Sites: 4, Duration: 150, PerSiteRate: 9, Seed: 21}
		},
		"mmpp": func() cluster.GenSpec {
			procs := make([]workload.ArrivalProcess, 4)
			for i := range procs {
				procs[i] = workload.NewMMPP(3, 20, 30, 15)
			}
			return cluster.GenSpec{Sites: 4, Duration: 150, Seed: 22, Arrivals: procs}
		},
		"nhpp": func() cluster.GenSpec {
			procs := make([]workload.ArrivalProcess, 4)
			for i := range procs {
				procs[i] = workload.NewNHPP([]float64{4, 18, 9, 2}, 40, false)
			}
			return cluster.GenSpec{Sites: 4, Duration: 150, Seed: 23, Arrivals: procs}
		},
		"nhpp-piecewise": func() cluster.GenSpec {
			// The exact per-segment NHPP mode: not bit-identical to the
			// thinning family above (different random-stream use), but
			// Generate/Stream/ParallelStream must still agree with each
			// other on it exactly.
			procs := make([]workload.ArrivalProcess, 4)
			for i := range procs {
				procs[i] = workload.NewNHPP([]float64{4, 0, 18, 9, 2}, 30, false)
			}
			return cluster.GenSpec{Sites: 4, Duration: 150, Seed: 29, Arrivals: procs,
				PiecewiseEnvelope: true}
		},
		"batch": func() cluster.GenSpec {
			// Same-instant batches tie exactly on (Time, Site): the case
			// that forces the stable merge order.
			procs := make([]workload.ArrivalProcess, 4)
			for i := range procs {
				if i%2 == 0 {
					procs[i] = workload.NewBatch(workload.NewRenewal(dist.Deterministic{Value: 1}), 7)
				} else {
					procs[i] = workload.NewBatch(workload.NewPoisson(2), 5)
				}
			}
			return cluster.GenSpec{Sites: 4, Duration: 150, Seed: 24, Arrivals: procs}
		},
		"csv-fixture": func() cluster.GenSpec {
			return cluster.GenSpec{Sites: 3, Duration: 150, Seed: 25, Arrivals: fixtureProcs()}
		},
		"azure-fixture": func() cluster.GenSpec {
			return cluster.GenSpec{Sites: 5, Duration: 240, Seed: 26, Arrivals: azureProcs()}
		},
	}
}

// TestStreamMatchesGenerateRecords: Stream yields Generate's record
// sequence exactly, element for element, for every scenario family.
func TestStreamMatchesGenerateRecords(t *testing.T) {
	for name, mk := range streamScenarios(t) {
		t.Run(name, func(t *testing.T) {
			want := cluster.Generate(mk())
			if want.Len() == 0 {
				t.Fatal("scenario generated no records; test is vacuous")
			}
			src := cluster.Stream(mk())
			for i, rec := range want.Records {
				got, ok := src.Next()
				if !ok {
					t.Fatalf("stream ended at record %d of %d", i, want.Len())
				}
				if got != rec {
					t.Fatalf("record %d diverges: stream %+v, generate %+v", i, got, rec)
				}
			}
			if rec, ok := src.Next(); ok {
				t.Fatalf("stream yielded %+v past the %d generated records", rec, want.Len())
			}
		})
	}
}

// spillTopology is the equivalence deployment: home-routed edge sites
// spilling overload to a pooled cloud backstop.
func spillTopology(sites int) cluster.Topology {
	cloudPath := netem.CloudTypical
	return cluster.Topology{
		Name: "equiv",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "cloud", Sites: 1, ServersPerSite: sites, Path: cloudPath,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{{
			From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloudPath,
		}},
	}
}

// compareTopologyResults asserts bit-identical topology runs.
func compareTopologyResults(t *testing.T, name string, want, got *cluster.TopologyResult) {
	t.Helper()
	if got.Offered != want.Offered || got.Consumed != want.Consumed {
		t.Errorf("%s: offered/consumed %d/%d != %d/%d",
			name, got.Offered, got.Consumed, want.Offered, want.Consumed)
	}
	if got.Completed != want.Completed || got.Dropped != want.Dropped {
		t.Errorf("%s: completed/dropped %d/%d != %d/%d",
			name, got.Completed, got.Dropped, want.Completed, want.Dropped)
	}
	if got.Rejected != want.Rejected {
		t.Errorf("%s: rejected %d != %d", name, got.Rejected, want.Rejected)
	}
	if got.Duration != want.Duration {
		t.Errorf("%s: duration %v != %v", name, got.Duration, want.Duration)
	}
	if got.EndToEnd.N() != want.EndToEnd.N() ||
		got.EndToEnd.Mean() != want.EndToEnd.Mean() ||
		got.EndToEnd.P95() != want.EndToEnd.P95() {
		t.Errorf("%s: end-to-end digest diverges: n %d/%d mean %v/%v p95 %v/%v", name,
			got.EndToEnd.N(), want.EndToEnd.N(), got.EndToEnd.Mean(), want.EndToEnd.Mean(),
			got.EndToEnd.P95(), want.EndToEnd.P95())
	}
	if got.Wait.Mean() != want.Wait.Mean() {
		t.Errorf("%s: wait mean %v != %v", name, got.Wait.Mean(), want.Wait.Mean())
	}
	if got.Utilization != want.Utilization {
		t.Errorf("%s: utilization %v != %v", name, got.Utilization, want.Utilization)
	}
	if got.TotalCost != want.TotalCost {
		t.Errorf("%s: total cost %v != %v", name, got.TotalCost, want.TotalCost)
	}
	if len(got.Tiers) != len(want.Tiers) {
		t.Fatalf("%s: %d tiers != %d", name, len(got.Tiers), len(want.Tiers))
	}
	for i := range want.Tiers {
		w, g := &want.Tiers[i], &got.Tiers[i]
		if g.Served != w.Served || g.Spilled != w.Spilled || g.Dropped != w.Dropped {
			t.Errorf("%s/%s: served/spilled/dropped %d/%d/%d != %d/%d/%d", name, w.Name,
				g.Served, g.Spilled, g.Dropped, w.Served, w.Spilled, w.Dropped)
		}
		if g.EndToEnd.Mean() != w.EndToEnd.Mean() || g.Wait.Mean() != w.Wait.Mean() {
			t.Errorf("%s/%s: latency diverges: e2e %v/%v wait %v/%v", name, w.Name,
				g.EndToEnd.Mean(), w.EndToEnd.Mean(), g.Wait.Mean(), w.Wait.Mean())
		}
		if g.Utilization != w.Utilization || g.ServerSeconds != w.ServerSeconds || g.Cost != w.Cost {
			t.Errorf("%s/%s: util/server-sec/cost %v/%v/%v != %v/%v/%v", name, w.Name,
				g.Utilization, g.ServerSeconds, g.Cost, w.Utilization, w.ServerSeconds, w.Cost)
		}
		if g.Rejected != w.Rejected || g.RejectionCost != w.RejectionCost {
			t.Errorf("%s/%s: rejected/cost %d/%v != %d/%v", name, w.Name,
				g.Rejected, g.RejectionCost, w.Rejected, w.RejectionCost)
		}
		if len(g.Classes) != len(w.Classes) {
			t.Fatalf("%s/%s: %d classes != %d", name, w.Name, len(g.Classes), len(w.Classes))
		}
		for c := range w.Classes {
			wc, gc := &w.Classes[c], &g.Classes[c]
			if gc.Served != wc.Served || gc.Dropped != wc.Dropped || gc.Rejected != wc.Rejected {
				t.Errorf("%s/%s/%s: served/dropped/rejected %d/%d/%d != %d/%d/%d", name, w.Name,
					wc.Name, gc.Served, gc.Dropped, gc.Rejected, wc.Served, wc.Dropped, wc.Rejected)
			}
			if gc.EndToEnd.N() != wc.EndToEnd.N() || gc.EndToEnd.Mean() != wc.EndToEnd.Mean() ||
				gc.EndToEnd.P95() != wc.EndToEnd.P95() {
				t.Errorf("%s/%s/%s: class digest diverges: n %d/%d mean %v/%v", name, w.Name,
					wc.Name, gc.EndToEnd.N(), wc.EndToEnd.N(), gc.EndToEnd.Mean(), wc.EndToEnd.Mean())
			}
		}
	}
}

// TestStreamTopologyEquivalence: whole topology runs fed by Stream are
// bit-identical to runs fed by the materialized trace, for every
// scenario family, across warmup and summary memory modes.
func TestStreamTopologyEquivalence(t *testing.T) {
	for name, mk := range streamScenarios(t) {
		for _, tc := range []struct {
			label  string
			warmup float64
			mode   stats.Mode
		}{
			{"exact", 0, stats.Exact},
			{"exact-warmup", 40, stats.Exact},
			{"bounded", 0, stats.Bounded},
			{"bounded-warmup", 40, stats.Bounded},
		} {
			t.Run(name+"/"+tc.label, func(t *testing.T) {
				topo := spillTopology(mk().Sites)
				run := func(src cluster.Source) *cluster.TopologyResult {
					res, err := cluster.Run(src, topo, cluster.Options{
						Warmup: tc.warmup, Seed: 5, Summary: tc.mode,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				tr := cluster.Generate(mk())
				want := run(tr.Source())
				got := run(cluster.Stream(mk()))
				if want.Offered == 0 {
					t.Fatal("no requests offered; test is vacuous")
				}
				compareTopologyResults(t, name+"/"+tc.label, want, got)
			})
		}
	}
}

// streamProbeRun replays a generated stream of the given duration
// through a zero-RTT edge and reports the peak event-calendar size and
// the offered request count.
func streamProbeRun(t *testing.T, duration float64) (maxPending int, offered uint64) {
	t.Helper()
	topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
		{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.Constant("zero", 0)},
	}}
	res, err := cluster.Run(
		cluster.Stream(cluster.GenSpec{Sites: 5, Duration: duration, PerSiteRate: 8, Seed: 42}),
		topo,
		cluster.Options{
			Warmup: 10, Seed: 43, Summary: stats.Bounded,
			Probe: func(p int) {
				if p > maxPending {
					maxPending = p
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	return maxPending, res.Offered
}

// TestStreamCalendarBounded extends the PR 2 Engine.Pending() probe to
// generator sources: the event calendar must not grow as the generated
// request count grows 10x and 100x.
func TestStreamCalendarBounded(t *testing.T) {
	shortMax, shortN := streamProbeRun(t, 100)
	midMax, midN := streamProbeRun(t, 1000)
	longMax, longN := streamProbeRun(t, 10000)
	if midN < 5*shortN || longN < 5*midN {
		t.Fatalf("request scaling broken: %d -> %d -> %d offered", shortN, midN, longN)
	}
	// 5 stations and zero RTT (the pump sits in the arrival lane, not
	// the calendar): a handful of live events.
	const bound = 2*5 + 8
	if shortMax == 0 || shortMax > bound {
		t.Errorf("short run max Pending = %d, want in (0, %d]", shortMax, bound)
	}
	if longMax > bound {
		t.Errorf("100x run max Pending = %d exceeds constant bound %d (%d requests)",
			longMax, bound, longN)
	}
	if longMax > shortMax+2 || midMax > shortMax+2 {
		t.Errorf("calendar grew with request count: %d (n=%d) -> %d (n=%d) -> %d (n=%d)",
			shortMax, shortN, midMax, midN, longMax, longN)
	}
}

// TestStreamMemoryBounded: allocation count and allocated bytes for a
// full streamed bounded-summary replay stay constant-bounded as the
// request count grows 10x and 100x — the resident-memory half of the
// O(1) guarantee (the free list and digests stop growing once the
// steady state is reached, so longer runs allocate no more).
func TestStreamMemoryBounded(t *testing.T) {
	replay := func(duration float64) func() {
		return func() {
			topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
				{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.Constant("zero", 0)},
			}}
			if _, err := cluster.Run(
				cluster.Stream(cluster.GenSpec{Sites: 5, Duration: duration, PerSiteRate: 8, Seed: 47}),
				topo,
				cluster.Options{Warmup: 10, Seed: 48, Summary: stats.Bounded},
			); err != nil {
				panic(err)
			}
		}
	}
	bytesFor := func(run func()) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}

	short, long := replay(100), replay(10000)
	short() // warm sync.Pools and lazy runtime state out of the measurement

	aShort := testing.AllocsPerRun(3, short)
	aLong := testing.AllocsPerRun(1, long)
	if aLong > 2*aShort+500 {
		t.Errorf("allocations grew with request count: %v (100s) -> %v (10000s)", aShort, aLong)
	}
	bShort := bytesFor(short)
	bLong := bytesFor(long)
	if bLong > 3*bShort+float64(4<<20) {
		t.Errorf("allocated bytes grew with request count: %.0f (100s) -> %.0f (10000s)", bShort, bLong)
	}
	if math.IsNaN(aShort) || aShort == 0 {
		t.Fatalf("implausible baseline alloc count %v; probe is broken", aShort)
	}
}

// TestAzureArrivalsIntegration: the Azure trace generator plugs into
// Generate and produces per-site loads matching the envelopes. (Moved
// from the internal cluster tests so the trace package may depend on
// cluster for its streaming decoders.)
func TestAzureArrivalsIntegration(t *testing.T) {
	spec := trace.DefaultAzureSpec()
	spec.Minutes = 5
	series := trace.GenerateAzure(spec)
	tr := cluster.Generate(cluster.GenSpec{
		Sites:    spec.Sites,
		Duration: 300,
		Seed:     28,
		Arrivals: trace.ToArrivalProcesses(series, false),
	})
	for i, s := range series {
		want := s.Total()
		var got float64
		for _, r := range tr.Records {
			if r.Site == i {
				got++
			}
		}
		if math.Abs(got-want) > 0.25*want+20 {
			t.Errorf("site %d generated %v requests, envelope says %v", i, got, want)
		}
	}
}
