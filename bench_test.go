// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact), plus ablation benches for the design choices DESIGN.md
// calls out and micro-benchmarks of the hot kernels. Latency/shape
// metrics are attached to each bench via b.ReportMetric so `go test
// -bench` output records the reproduced numbers alongside timing.
package edgebench_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/app"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchDuration keeps per-iteration simulation cost moderate while
// preserving the figures' shapes.
const benchDuration = 200.0

// BenchmarkFig2TaxiCellLoad regenerates Figure 2: per-cell vehicle load
// box plots from the synthetic mobility trace.
func BenchmarkFig2TaxiCellLoad(b *testing.B) {
	spec := trace.DefaultTaxiSpec()
	spec.Hours = 6
	var skew float64
	for i := 0; i < b.N; i++ {
		loads := trace.TaxiCellLoads(spec)
		boxes := trace.CellBoxPlots(loads)
		skew = boxes[0].Median / (boxes[len(boxes)/2].Median + 1)
	}
	b.ReportMetric(skew, "hotspot/median-cell")
}

// BenchmarkFig3MeanLatencyTypicalCloud regenerates Figure 3: mean
// latency vs request rate for the 25 ms cloud.
func BenchmarkFig3MeanLatencyTypicalCloud(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3("typical-25ms", benchDuration, 42)
		if err != nil {
			b.Fatal(err)
		}
		if r, _, ok := res.OneServer.Crossover(experiments.Mean); ok {
			rate = r
		}
	}
	b.ReportMetric(rate, "crossover-req/s")
}

// BenchmarkFig4MeanLatencyDistantCloud regenerates Figure 4: mean
// latency vs rate for the 54 ms cloud.
func BenchmarkFig4MeanLatencyDistantCloud(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3("distant-54ms", benchDuration, 42)
		if err != nil {
			b.Fatal(err)
		}
		if r, _, ok := res.OneServer.Crossover(experiments.Mean); ok {
			rate = r
		} else {
			rate = 13 // no inversion below saturation
		}
	}
	b.ReportMetric(rate, "crossover-req/s")
}

// BenchmarkFig5TailLatencyDistantCloud regenerates Figure 5: p95 latency
// vs rate for the 54 ms cloud.
func BenchmarkFig5TailLatencyDistantCloud(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3("distant-54ms", benchDuration, 42)
		if err != nil {
			b.Fatal(err)
		}
		if r, _, ok := res.OneServer.Crossover(experiments.P95); ok {
			rate = r
		} else {
			rate = 13
		}
	}
	b.ReportMetric(rate, "p95-crossover-req/s")
}

// BenchmarkFig6LatencyDistributions regenerates Figure 6: the response
// distributions at 10 req/server/s.
func BenchmarkFig6LatencyDistributions(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		out := experiments.RunFig6(benchDuration, 5)
		spread = out[0].Box.IQR() / (out[3].Box.IQR() + 1e-9)
	}
	b.ReportMetric(spread, "edge1-IQR/cloud10-IQR")
}

// BenchmarkFig7CutoffUtilization regenerates Figure 7: cutoff
// utilizations across the four cloud RTTs.
func BenchmarkFig7CutoffUtilization(b *testing.B) {
	var nearest, farthest float64
	for i := 0; i < b.N; i++ {
		points := experiments.RunFig7(120, 11)
		nearest = points[0].MeanCutoff
		farthest = points[len(points)-1].MeanCutoff
	}
	b.ReportMetric(nearest*100, "cutoff%%-13ms")
	b.ReportMetric(farthest*100, "cutoff%%-80ms")
}

// BenchmarkFig8AzureTraceWorkload regenerates Figure 8: the 5-site
// Azure-like workload series.
func BenchmarkFig8AzureTraceWorkload(b *testing.B) {
	spec := trace.DefaultAzureSpec()
	var skew float64
	for i := 0; i < b.N; i++ {
		series := trace.GenerateAzure(spec)
		skew, _ = trace.SkewStats(series)
	}
	b.ReportMetric(skew, "mean-busiest/mean")
}

// BenchmarkFig9AzureReplayTimeline regenerates Figure 9: minute-binned
// mean latency for edge vs cloud under the Azure workload.
func BenchmarkFig9AzureReplayTimeline(b *testing.B) {
	spec := trace.DefaultAzureSpec()
	spec.Minutes = 8
	var edgeOverCloud float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunAzureReplay(spec, 1.0, 7)
		edgeOverCloud = res.EdgeResult.MeanLatency() / res.CloudResult.MeanLatency()
	}
	b.ReportMetric(edgeOverCloud, "edge-mean/cloud-mean")
}

// BenchmarkFig10PerSiteBoxplot regenerates Figure 10: per-site latency
// distributions under the Azure workload.
func BenchmarkFig10PerSiteBoxplot(b *testing.B) {
	spec := trace.DefaultAzureSpec()
	spec.Minutes = 8
	var worstOverBest float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunAzureReplay(spec, 1.0, 7)
		best, worst := res.EdgeBoxes[0].Median, res.EdgeBoxes[0].Median
		for _, bx := range res.EdgeBoxes {
			if bx.Median < best {
				best = bx.Median
			}
			if bx.Median > worst {
				worst = bx.Median
			}
		}
		worstOverBest = worst / best
	}
	b.ReportMetric(worstOverBest, "worst-site/best-site-median")
}

// BenchmarkValidationAnalyticVsSimulated regenerates the §4.2 validation
// table comparing measured crossovers against Corollary 3.1.1.
func BenchmarkValidationAnalyticVsSimulated(b *testing.B) {
	var measured, paper float64
	for i := 0; i < b.N; i++ {
		rows := experiments.RunValidation(benchDuration, 42)
		measured = rows[0].MeasuredUtil
		paper = rows[0].PaperCutoff
	}
	b.ReportMetric(measured*100, "measured-cutoff%%")
	b.ReportMetric(paper*100, "paper-cutoff%%")
}

// BenchmarkCapacityProvisioning regenerates the §5.2 capacity table.
func BenchmarkCapacityProvisioning(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		rows := experiments.RunCapacityTable([]float64{10, 100, 1000}, []int{5, 10, 50})
		overhead = rows[len(rows)-1].Overhead
	}
	b.ReportMetric(overhead, "edge/cloud-capacity")
}

// BenchmarkTheoryAccuracy quantifies the Allen–Cunneen approximation
// error against exact M/M/k across the paper's operating range (Lemmas
// 3.1/3.2 numeric check).
func BenchmarkTheoryAccuracy(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		maxErr = 0
		for _, k := range []int{1, 2, 5, 10} {
			for _, rho := range []float64{0.75, 0.85, 0.95} {
				e := theory.GGkAccuracyNote(k, rho, 13)
				if e < 0 {
					e = -e
				}
				if e > maxErr {
					maxErr = e
				}
			}
		}
	}
	b.ReportMetric(maxErr*100, "max-rel-err-%%")
}

// --- Ablation benches (DESIGN.md §4) ---

// benchEdge is the paper's edge: one home-routed tier of sites.
func benchEdge(sites, servers int, path netem.Path) cluster.Topology {
	return cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
		{Name: "edge", Sites: sites, ServersPerSite: servers, Path: path},
	}}
}

// benchCloud is the paper's cloud: servers behind one dispatch policy.
func benchCloud(servers int, path netem.Path, dispatch string) cluster.Topology {
	return cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{cluster.CloudTier(servers, path, dispatch)}}
}

// benchOverflow is the hierarchical edge: servers per site, spilling to
// a pooled cloud of cloudServers at the given site load.
func benchOverflow(sites, servers, cloudServers, threshold int, sc netem.Scenario) cluster.Topology {
	return cluster.Topology{
		Name:   "edge+overflow",
		Tiers:  []cluster.Tier{benchEdge(sites, servers, sc.Edge).Tiers[0], cluster.CloudTier(cloudServers, sc.Cloud, "")},
		Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: threshold, DetourPath: &sc.Cloud}},
	}
}

// replayTrace runs tr through topo with digests sized to the trace,
// failing the benchmark on error.
func replayTrace(b *testing.B, tr *cluster.WorkloadTrace, topo cluster.Topology, opts cluster.Options) *cluster.TopologyResult {
	b.Helper()
	opts.SizeHint = tr.Len()
	res, err := cluster.Run(tr.Source(), topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func ablationTrace(seed int64) *cluster.WorkloadTrace {
	return cluster.Generate(cluster.GenSpec{
		Sites: 5, Duration: benchDuration, PerSiteRate: 11, Seed: seed,
	})
}

// BenchmarkAblationDispatch compares cloud dispatch policies at high
// load: central queue vs least-conn vs round robin vs random.
func BenchmarkAblationDispatch(b *testing.B) {
	policies := []string{
		cluster.CentralQueueDispatch, lb.PolicyLeastConn, lb.PolicyPowerOfTwo,
		lb.PolicyRoundRobin, lb.PolicyRandom,
	}
	for _, pol := range policies {
		b.Run(pol, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				tr := ablationTrace(17)
				res := replayTrace(b, tr, benchCloud(5, netem.Constant("zero", 0), pol),
					cluster.Options{Warmup: 20, Seed: 18})
				mean = res.MeanLatency()
			}
			b.ReportMetric(mean*1000, "mean-ms")
		})
	}
}

// BenchmarkAblationGeoLB measures §5.1 geographic load balancing under
// skew: plain edge vs jockeying edge vs cloud.
func BenchmarkAblationGeoLB(b *testing.B) {
	mk := func(b *testing.B, jockey int) float64 {
		procs := make([]workload.ArrivalProcess, 5)
		rates := []float64{14, 8, 6, 3, 3}
		for i, r := range rates {
			procs[i] = workload.NewPoisson(r)
		}
		tr := cluster.Generate(cluster.GenSpec{
			Sites: 5, Duration: benchDuration, Seed: 19, Arrivals: procs,
		})
		sc, _ := netem.ScenarioByName("typical-25ms")
		topo := benchEdge(5, 1, sc.Edge)
		topo.Tiers[0].JockeyThreshold, topo.Tiers[0].DetourRTT = jockey, 0.005
		return replayTrace(b, tr, topo, cluster.Options{Warmup: 20, Seed: 20}).MeanLatency()
	}
	b.Run("no-jockeying", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			m = mk(b, 0)
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
	b.Run("jockey-3", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			m = mk(b, 3)
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
}

// BenchmarkAblationServiceCoV sweeps service-time variability: Corollary
// 3.2.1 predicts burstier service lowers the inversion threshold.
func BenchmarkAblationServiceCoV(b *testing.B) {
	for _, scv := range []float64{0.0, 0.5, 1.0, 2.0} {
		b.Run(scvName(scv), func(b *testing.B) {
			var cross float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.DefaultSweepConfig()
				cfg.Duration = benchDuration
				cfg.Model = app.NewInferenceModelWith(1.0/13, scv)
				res := experiments.RunSweep(cfg)
				if r, _, ok := res.Crossover(experiments.Mean); ok {
					cross = r
				} else {
					cross = 13
				}
			}
			b.ReportMetric(cross, "crossover-req/s")
		})
	}
}

func scvName(scv float64) string {
	switch scv {
	case 0:
		return "scv-0.0"
	case 0.5:
		return "scv-0.5"
	case 1:
		return "scv-1.0"
	default:
		return "scv-2.0"
	}
}

// BenchmarkAblationSkewProvisioning compares fair-share vs load-matched
// per-site capacity under skew (Lemma 3.3's takeaway).
func BenchmarkAblationSkewProvisioning(b *testing.B) {
	run := func(b *testing.B, perSite []int) float64 {
		procs := make([]workload.ArrivalProcess, 5)
		for i, r := range []float64{20, 10, 6, 6, 6} {
			procs[i] = workload.NewPoisson(r)
		}
		tr := cluster.Generate(cluster.GenSpec{
			Sites: 5, Duration: benchDuration, Seed: 23, Arrivals: procs,
		})
		topo := benchEdge(5, 0, netem.Constant("zero", 0))
		topo.Tiers[0].PerSiteServers = perSite
		return replayTrace(b, tr, topo, cluster.Options{Warmup: 20, Seed: 24}).MeanLatency()
	}
	b.Run("fair-share-2-each", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			m = run(b, []int{2, 2, 2, 2, 2})
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
	b.Run("load-matched", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			m = run(b, []int{3, 2, 2, 2, 1})
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
}

// BenchmarkReplayStreaming1M measures the streaming replay core on a
// million-request trace in bounded-summary mode: the event calendar
// holds O(#stations) events, request objects and event nodes recycle
// through free lists, and latency collectors keep constant state. The
// pre-refactor materialized runner allocated ~6 objects per request
// (request + Done closure + arrival closure + two event nodes + service
// closure; measured 1,201,755 allocs for a 200k-request edge replay);
// the streaming core must stay at least 10x below that per request.
// Run with -benchmem (the CI short-bench step does) to see allocs/op.
func BenchmarkReplayStreaming1M(b *testing.B) {
	tr := cluster.Generate(cluster.GenSpec{
		Sites: 5, Duration: 10000, PerSiteRate: 20, Seed: 61,
	})
	if tr.Len() < 900000 {
		b.Fatalf("trace has %d requests, want ~1M", tr.Len())
	}
	sc, _ := netem.ScenarioByName("typical-25ms")
	b.Run("edge", func(b *testing.B) {
		b.ReportAllocs()
		var mean float64
		for i := 0; i < b.N; i++ {
			res := replayTrace(b, tr, benchEdge(5, 2, sc.Edge),
				cluster.Options{Warmup: 100, Seed: 62, Summary: stats.Bounded})
			mean = res.MeanLatency()
		}
		b.ReportMetric(mean*1000, "mean-ms")
		b.ReportMetric(float64(tr.Len()), "requests")
	})
	b.Run("cloud", func(b *testing.B) {
		b.ReportAllocs()
		var mean float64
		for i := 0; i < b.N; i++ {
			res := replayTrace(b, tr, benchCloud(10, sc.Cloud, ""),
				cluster.Options{Warmup: 100, Seed: 63, Summary: stats.Bounded})
			mean = res.MeanLatency()
		}
		b.ReportMetric(mean*1000, "mean-ms")
		b.ReportMetric(float64(tr.Len()), "requests")
	})
}

// BenchmarkStream100M replays a 10⁸-request generated workload through
// the two-tier edge+overflow topology on a streaming generator source —
// nothing trace-sized is ever materialized, summaries stay bounded, so
// the run's resident memory is independent of the request count (the
// ISSUE 5 acceptance scale). In short mode (the CI short-bench step
// passes -short) the same pipeline runs at 10⁶ requests, keeping the
// allocs/op figure in every CI artifact: with O(1) streaming the
// allocation count barely moves with scale, so any per-request
// regression is glaring. Run with -benchmem.
func BenchmarkStream100M(b *testing.B) {
	duration := 1_000_000.0 // 5 sites × 20 req/s × 10⁶ s = 10⁸ requests
	if testing.Short() {
		duration = 10_000 // 10⁶ requests
	}
	spec := cluster.GenSpec{Sites: 5, Duration: duration, PerSiteRate: 20, Seed: 71}
	sc, _ := netem.ScenarioByName("typical-25ms")
	topo := benchOverflow(5, 2, 10, 4, sc)
	b.ReportAllocs()
	var offered uint64
	var mean float64
	for i := 0; i < b.N; i++ {
		res, err := cluster.Run(cluster.Stream(spec), topo, cluster.Options{
			Warmup: 100, Seed: 72, Summary: stats.Bounded, NoPerSiteLatency: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		offered = res.Offered
		mean = res.EndToEnd.Mean()
	}
	b.ReportMetric(float64(offered), "requests")
	b.ReportMetric(mean*1000, "mean-ms")
}

// BenchmarkShardedReplay1M measures the sharded topology replay on a
// ~10⁶-request three-tier hierarchy at shard counts 1/2/4/8, next to
// the single-engine cluster.Run on the identical workload. benchjson
// turns the shards-N sub-bench timings into BENCH_PR7.json's
// shard-scaling curve; sharded results are bit-identical across counts
// (the shard-determinism suite asserts it), so the curve measures
// wall-clock alone. Speedup beyond shards-1 needs real cores: on a
// single-CPU runner the goroutines serialize and the curve is flat. In
// short mode (CI's short-bench step) the same pipeline replays 10⁵
// requests. Run with -benchmem.
func BenchmarkShardedReplay1M(b *testing.B) {
	const sites = 8
	duration := 6250.0 // 8 sites × 20 req/s × 6250 s = 10⁶ requests
	if testing.Short() {
		duration = 625
	}
	spec := cluster.GenSpec{Sites: sites, Duration: duration, PerSiteRate: 20, Seed: 81}
	regional := netem.Jittered("regional-13ms", 0.013, 0.002)
	cloud := netem.CloudTypical
	topo := cluster.Topology{
		Name: "bench-three-tier",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 2, Path: netem.EdgePath},
			{Name: "regional", Sites: 1, ServersPerSite: 6, Path: regional,
				Dispatch: cluster.CentralQueueDispatch},
			{Name: "cloud", Sites: 1, ServersPerSite: 8, Path: cloud,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{
			{From: "edge", To: "regional", Threshold: 3, DetourPath: &regional},
			{From: "regional", To: "cloud", Threshold: 8, DetourPath: &cloud},
		},
	}
	opts := cluster.Options{Warmup: 100, Seed: 82, Summary: stats.Bounded, NoPerSiteLatency: true}
	b.Run("single-engine", func(b *testing.B) {
		b.ReportAllocs()
		var offered uint64
		for i := 0; i < b.N; i++ {
			res, err := cluster.Run(cluster.Stream(spec), topo, opts)
			if err != nil {
				b.Fatal(err)
			}
			offered = res.Offered
		}
		b.ReportMetric(float64(offered), "requests")
	})
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var offered uint64
			for i := 0; i < b.N; i++ {
				res, err := cluster.RunPipelined(cluster.GenShards(spec), topo, opts, n)
				if err != nil {
					b.Fatal(err)
				}
				offered = res.Offered
			}
			b.ReportMetric(float64(offered), "requests")
		})
	}
}

// peakRSSMB reads the process peak resident set (VmHWM) in MB.
func peakRSSMB(b *testing.B) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0 // not Linux: report 0 rather than fail the bench
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resetPeakRSS clears the VmHWM watermark so each sub-benchmark
// measures its own peak, not its predecessors'. Best effort: kernels
// without clear_refs keep the cumulative watermark.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// BenchmarkShowcaseMillionSites replays 10⁸ requests through a
// million-station edge backed by a shared cloud pool on 4 sharded
// engines. Reported metrics: peak RSS (boundary memory is bounded by
// ring capacity, not by the boundary count) and the peak resident
// boundary backlog. In short mode the same pipeline runs 10⁶ requests
// over 10⁴ sites. Run with -benchmem.
func BenchmarkShowcaseMillionSites(b *testing.B) {
	sites := 1_000_000
	if testing.Short() {
		sites = 10_000
	}
	// 100 requests per site: sites × 8 req/s × 12.5 s.
	spec := cluster.GenSpec{Sites: sites, Duration: 12.5, PerSiteRate: 8, Seed: 97}
	cloudPath := netem.CloudTypical
	topo := cluster.Topology{
		Name: "showcase-million",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "cloud", Sites: 1, ServersPerSite: 64, Path: cloudPath,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{
			{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloudPath},
		},
	}
	const shards = 4
	opts := cluster.Options{
		Warmup: 2, Seed: 98, Summary: stats.Bounded, NoPerSiteLatency: true,
	}
	b.ReportAllocs()
	resetPeakRSS()
	var backlog int
	opts.BacklogProbe = func(p int) { backlog = p }
	var offered uint64
	for i := 0; i < b.N; i++ {
		res, err := cluster.RunPipelined(cluster.GenShards(spec), topo, opts, shards)
		if err != nil {
			b.Fatal(err)
		}
		offered = res.Offered
	}
	b.ReportMetric(float64(offered), "requests")
	b.ReportMetric(peakRSSMB(b), "peak-RSS-MB")
	b.ReportMetric(float64(backlog), "peak-backlog-records")
}

// BenchmarkEngineBackends pits the calendar-queue event calendar
// against the retired binary heap on the same replay, the PR 6 tentpole
// comparison: allocs/op must not regress and the calendar's O(1)
// schedule/pop should at least match the heap's O(log n).
func BenchmarkEngineBackends(b *testing.B) {
	spec := cluster.GenSpec{Sites: 5, Duration: 2000, PerSiteRate: 20, Seed: 91}
	sc, _ := netem.ScenarioByName("typical-25ms")
	topo := benchOverflow(5, 2, 10, 4, sc)
	for _, bk := range []struct {
		name string
		b    sim.Backend
	}{
		{"calendar-queue", sim.CalendarQueue},
		{"binary-heap", sim.BinaryHeap},
	} {
		b.Run(bk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := cluster.Run(cluster.Stream(spec), topo, cluster.Options{
					Warmup: 100, Seed: 92, Summary: stats.Bounded,
					NoPerSiteLatency: true, Backend: bk.b,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks of the hot kernels ---

// BenchmarkSimEngineEventThroughput measures raw event processing.
func BenchmarkSimEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine(1)
	var next func(e *sim.Engine)
	count := 0
	next = func(e *sim.Engine) {
		count++
		if count < b.N {
			e.After(0.001, next)
		}
	}
	b.ResetTimer()
	eng.After(0.001, next)
	eng.Run()
}

// BenchmarkStationMM1 measures the queueing station's per-request cost.
func BenchmarkStationMM1(b *testing.B) {
	eng := sim.NewEngine(1)
	st := queue.NewStation(eng, "bench", 1, queue.FCFS)
	svc := dist.NewExponentialMean(1.0 / 13)
	arr := dist.NewExponentialMean(1.0 / 9)
	rng := eng.NewStream()
	t := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += arr.Sample(rng)
		req := &queue.Request{ID: uint64(i), ServiceTime: svc.Sample(rng)}
		eng.At(t, func(e *sim.Engine) { st.Arrive(req) })
	}
	eng.Run()
	st.Finish()
}

// BenchmarkStatsSampleQuantile measures the exact-quantile kernel.
func BenchmarkStatsSampleQuantile(b *testing.B) {
	s := stats.NewSample(100000)
	rng := sim.NewEngine(1).RNG()
	for i := 0; i < 100000; i++ {
		s.Add(rng.ExpFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.ExpFloat64())
		_ = s.P95()
	}
}

// BenchmarkWorkloadGenerate measures trace synthesis.
func BenchmarkWorkloadGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := cluster.Generate(cluster.GenSpec{
			Sites: 5, Duration: 100, PerSiteRate: 10, Seed: int64(i),
		})
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTheoryCutoffBisect measures the numeric cutoff solver.
func BenchmarkTheoryCutoffBisect(b *testing.B) {
	d := theory.Deployment{K: 5, ServersPerSite: 1, Mu: 13, EdgeRTT: 0.001, CloudRTT: 0.025}
	for i := 0; i < b.N; i++ {
		_ = d.CutoffUtilizationExactMM()
	}
}

// BenchmarkAblationOverflow measures the hierarchical edge→cloud
// overflow mitigation against the plain edge under a saturated hot site.
func BenchmarkAblationOverflow(b *testing.B) {
	mkTrace := func() *cluster.WorkloadTrace {
		procs := make([]workload.ArrivalProcess, 5)
		for i, r := range []float64{18, 5, 5, 3, 3} {
			procs[i] = workload.NewPoisson(r)
		}
		return cluster.Generate(cluster.GenSpec{
			Sites: 5, Duration: benchDuration, Seed: 51, Arrivals: procs,
		})
	}
	sc, _ := netem.ScenarioByName("typical-25ms")
	b.Run("plain-edge", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			res := replayTrace(b, mkTrace(), benchEdge(5, 1, sc.Edge), cluster.Options{Warmup: 20, Seed: 52})
			m = res.MeanLatency()
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
	b.Run("overflow-to-cloud", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			res := replayTrace(b, mkTrace(), benchOverflow(5, 1, 5, 4, sc),
				cluster.Options{Warmup: 20, Seed: 52, NoPerSiteLatency: true})
			m = res.MeanLatency()
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
}

// BenchmarkAblationAutoscale measures the reactive controller against a
// static edge under the same skewed workload.
func BenchmarkAblationAutoscale(b *testing.B) {
	mkTrace := func() *cluster.WorkloadTrace {
		procs := make([]workload.ArrivalProcess, 5)
		for i, r := range []float64{16, 8, 6, 3, 3} {
			procs[i] = workload.NewPoisson(r)
		}
		return cluster.Generate(cluster.GenSpec{
			Sites: 5, Duration: benchDuration, Seed: 53, Arrivals: procs,
		})
	}
	sc, _ := netem.ScenarioByName("typical-25ms")
	b.Run("static", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			res := replayTrace(b, mkTrace(), benchEdge(5, 1, sc.Edge), cluster.Options{Warmup: 20, Seed: 54})
			m = res.MeanLatency()
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
	b.Run("autoscaled", func(b *testing.B) {
		var m float64
		var peak int
		for i := 0; i < b.N; i++ {
			topo := benchEdge(5, 1, sc.Edge)
			reactive := autoscale.ReactiveSpec(autoscale.Config{
				Interval: 2, Min: 1, Max: 4,
				UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6,
			})
			topo.Tiers[0].Scaler = &reactive
			res := replayTrace(b, mkTrace(), topo, cluster.Options{Warmup: 20, Seed: 54, NoPerSiteLatency: true})
			m = res.MeanLatency()
			peak = res.Tiers[0].PeakServers
		}
		b.ReportMetric(m*1000, "mean-ms")
		b.ReportMetric(float64(peak), "peak-servers")
	})
}

// BenchmarkTailCutoffAnalytic computes the analytic p95 cutoff
// utilizations (the extension of the paper's mean-only analysis) across
// the four cloud scenarios — the closed-form counterpart of Figure 7's
// p95 bars.
func BenchmarkTailCutoffAnalytic(b *testing.B) {
	var nearest, farthest float64
	for i := 0; i < b.N; i++ {
		for _, sc := range netem.PaperScenarios() {
			d := theory.Deployment{
				K: 5, ServersPerSite: 1, Mu: 13,
				EdgeRTT: sc.Edge.MeanRTT(), CloudRTT: sc.Cloud.MeanRTT(),
			}
			cut := d.TailCutoffUtilization(0.95)
			if sc.Name == "nearby-13ms" {
				nearest = cut
			}
			if sc.Name == "transcontinental-80ms" {
				farthest = cut
			}
		}
	}
	b.ReportMetric(nearest*100, "p95-cutoff%%-13ms")
	b.ReportMetric(farthest*100, "p95-cutoff%%-80ms")
}

// BenchmarkBoundedQueueLoss measures the M/M/c/K loss model against the
// simulated bounded-queue drop rate.
func BenchmarkBoundedQueueLoss(b *testing.B) {
	var lossTheory float64
	for i := 0; i < b.N; i++ {
		lossTheory = theory.MMcKLossProbability(1, 11, 1.1)
	}
	b.ReportMetric(lossTheory*100, "loss%%-rho1.1-K11")
}

// broadcastBenchSpec builds a generation-bound workload: an NHPP
// envelope whose peak sits ~1000x above its mean rate makes the
// generator's thinning loop draw ~1000 candidates per accepted
// arrival (thinning proposes at the envelope maximum), so generation —
// not replay — dominates each pass. That is the regime broadcast
// replay targets: N variant engines re-deriving this trace pay the
// thinning cost N times, one broadcast pass pays it once.
func broadcastBenchSpec(duration float64) cluster.GenSpec {
	const sites = 4
	envelope := make([]float64, 1000)
	for i := range envelope {
		envelope[i] = 0.1
	}
	envelope[999] = 4000 // one 0.3-second burst per 300-second cycle
	procs := make([]workload.ArrivalProcess, sites)
	for i := range procs {
		procs[i] = workload.NewNHPP(envelope, 0.3, true)
	}
	return cluster.GenSpec{Sites: sites, Duration: duration, Seed: 91, Arrivals: procs}
}

// broadcastBenchVariants are deliberately cheap to replay (ample
// servers, bounded summaries, no per-site digests), keeping the
// benchmark generation-bound; the four shapes differ only in capacity.
func broadcastBenchVariants() []cluster.Variant {
	variants := make([]cluster.Variant, 4)
	for i := range variants {
		topo := benchEdge(4, 6+2*i, netem.EdgePath)
		topo.Name = fmt.Sprintf("fanout-%d", 6+2*i)
		variants[i] = cluster.Variant{
			Label:    topo.Name,
			Topology: topo,
			Opts: cluster.Options{
				Warmup: 50, Seed: 92,
				Summary: stats.Bounded, NoPerSiteLatency: true,
			},
		}
	}
	return variants
}

// BenchmarkBroadcastFanout measures the tentpole claim: comparing 4
// deployment variants over one generation-bound trace via per-row
// re-derivation (each variant re-runs the generator) versus one
// broadcast pass fanning out to all 4 engines. The two paths produce
// bit-identical rows (the broadcast equivalence suite asserts it), so
// the ratio is pure generation savings: per-row costs 4·(G+S),
// broadcast G+4·S, with generation G ≫ replay S by construction.
// benchjson gates the broadcast/per-row ratio via BENCH_PR8.json. In
// short mode (CI's short-bench step) the trace shrinks ~10x.
func BenchmarkBroadcastFanout(b *testing.B) {
	duration := 3000.0
	if testing.Short() {
		duration = 300
	}
	spec := broadcastBenchSpec(duration)
	variants := broadcastBenchVariants()
	b.Run("per-row", func(b *testing.B) {
		b.ReportAllocs()
		var offered uint64
		for i := 0; i < b.N; i++ {
			offered = 0
			for _, v := range variants {
				res, err := cluster.Run(cluster.Stream(spec), v.Topology, v.Opts)
				if err != nil {
					b.Fatal(err)
				}
				offered += res.Offered
			}
		}
		b.ReportMetric(float64(offered), "requests")
	})
	b.Run("broadcast", func(b *testing.B) {
		b.ReportAllocs()
		var offered uint64
		for i := 0; i < b.N; i++ {
			offered = 0
			runs, err := cluster.RunBroadcast(cluster.Stream(spec), variants, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range runs {
				offered += res.Offered
			}
		}
		b.ReportMetric(float64(offered), "requests")
	})
}

// drainCount pulls src dry, returning the record count.
func drainCount(src cluster.Source) uint64 {
	var n uint64
	for {
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}

// BenchmarkParallelGen measures the PR 9 generation front-end on the
// same generation-bound NHPP workload BenchmarkBroadcastFanout uses:
// gen-serial drains cluster.Stream, gen-parallel the worker fan-out
// through ParallelStream (bit-identical records; the equivalence suite
// asserts it), and gen-piecewise the serial stream with the
// PiecewiseEnvelope flag — exact per-segment simulation instead of
// thinning against the 4000x envelope peak, the algorithmic half of
// the speedup. benchjson folds the serial/parallel pair into
// BENCH_PR9.json's gen_speedup; real speedup needs real cores — on a
// single-CPU runner the workers serialize and the pair measures merge
// overhead (parity acceptable). In short mode the trace shrinks ~10x.
func BenchmarkParallelGen(b *testing.B) {
	duration := 3000.0
	if testing.Short() {
		duration = 300
	}
	spec := broadcastBenchSpec(duration)
	b.Run("gen-serial", func(b *testing.B) {
		b.ReportAllocs()
		var n uint64
		for i := 0; i < b.N; i++ {
			n = drainCount(cluster.Stream(spec))
		}
		b.ReportMetric(float64(n), "requests")
	})
	b.Run("gen-parallel", func(b *testing.B) {
		b.ReportAllocs()
		var n uint64
		for i := 0; i < b.N; i++ {
			n = drainCount(cluster.ParallelStream(spec, 4))
		}
		b.ReportMetric(float64(n), "requests")
	})
	b.Run("gen-piecewise", func(b *testing.B) {
		b.ReportAllocs()
		pspec := spec
		pspec.PiecewiseEnvelope = true
		var n uint64
		for i := 0; i < b.N; i++ {
			n = drainCount(cluster.Stream(pspec))
		}
		b.ReportMetric(float64(n), "requests")
	})
}

// BenchmarkTraceDecode measures replay-input decoding on a pre-encoded
// ~200k-record trace: the request-CSV text decoder against the .etb
// binary decoder over the identical records. The binary path's
// acceptance bar is ≥5x less time and strictly fewer allocations per
// drain (the allocs/op regression tests pin both decoders at a small
// constant; -benchmem shows it here). Bytes-on-disk for each format
// ride along as metrics. In short mode the trace shrinks ~10x.
func BenchmarkTraceDecode(b *testing.B) {
	duration := 1250.0 // 8 sites x 20 req/s x 1250 s = 200k records
	if testing.Short() {
		duration = 125
	}
	spec := cluster.GenSpec{Sites: 8, Duration: duration, PerSiteRate: 20, Seed: 93}
	var csvBuf, etbBuf bytes.Buffer
	if _, err := trace.WriteRequestsCSV(&csvBuf, cluster.Stream(spec)); err != nil {
		b.Fatal(err)
	}
	if _, err := trace.WriteBinary(&etbBuf, cluster.Stream(spec)); err != nil {
		b.Fatal(err)
	}
	csvData, etbData := csvBuf.Bytes(), etbBuf.Bytes()
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		var n uint64
		for i := 0; i < b.N; i++ {
			src := trace.StreamRequestsCSV(bytes.NewReader(csvData))
			n = drainCount(src)
			if err := src.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "requests")
		b.ReportMetric(float64(len(csvData)), "file-bytes")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var n uint64
		for i := 0; i < b.N; i++ {
			src := trace.StreamBinary(bytes.NewReader(etbData))
			n = drainCount(src)
			if err := src.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "requests")
		b.ReportMetric(float64(len(etbData)), "file-bytes")
	})
}

// BenchmarkAdmissionOverhead prices the ISSUE 10 admission gate on the
// streaming replay core: the same 10⁶-request replay with no
// admission, with a never-rejecting entry token bucket (pure
// policy-check overhead — the event sequence is bit-identical, as the
// admission equivalence suite asserts), and with an active bucket
// shedding ~a third of traffic (rejections shortcut the service path,
// bounding the other side). benchjson gates all three against the
// committed BENCH_PR10.json. In short mode the replay scales to 10⁵
// requests.
func BenchmarkAdmissionOverhead(b *testing.B) {
	const sites = 8
	duration := 6250.0 // 8 sites × 20 req/s × 6250 s = 10⁶ requests
	if testing.Short() {
		duration = 625
	}
	spec := cluster.GenSpec{Sites: sites, Duration: duration, PerSiteRate: 20, Seed: 81}
	cloud := netem.CloudTypical
	topology := func(a *admit.Spec) cluster.Topology {
		return cluster.Topology{
			Name: "bench-admit",
			Tiers: []cluster.Tier{
				{Name: "edge", Sites: sites, ServersPerSite: 2, Path: netem.EdgePath,
					Admission: a},
				{Name: "cloud", Sites: 1, ServersPerSite: 8, Path: cloud,
					Dispatch: cluster.CentralQueueDispatch},
			},
			Spills: []cluster.SpillEdge{
				{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloud},
			},
		}
	}
	opts := cluster.Options{Warmup: 100, Seed: 82, Summary: stats.Bounded, NoPerSiteLatency: true}
	for _, tc := range []struct {
		name string
		spec *admit.Spec
	}{
		{"admit-off", nil},
		{"admit-noop", &admit.Spec{Policy: admit.TokenBucket, Rate: 1e9}},
		{"admit-active", &admit.Spec{Policy: admit.TokenBucket, Rate: 13}},
	} {
		topo := topology(tc.spec)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var offered, rejected uint64
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(cluster.Stream(spec), topo, opts)
				if err != nil {
					b.Fatal(err)
				}
				offered, rejected = res.Offered, res.Rejected
			}
			b.ReportMetric(float64(offered), "requests")
			b.ReportMetric(float64(rejected), "rejected")
		})
	}
}
