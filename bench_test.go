// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact), plus ablation benches for the simulator's design
// choices, theory benches, and the scale benches no replaybench workload
// covers (10⁸-request streaming, 10⁶ sites, parallel generation, trace
// decoding). Latency/shape metrics are attached to each bench via
// b.ReportMetric so `go test -bench` output records the reproduced
// numbers alongside timing. None of them gates CI: the performance gate
// is the replay benchmark (replaybench/), whose end-to-end metrics
// cmd/benchgate compares against the parent commit.
package edgebench_test

import (
	"bytes"
	"runtime/metrics"
	"strconv"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/lb"
	"repro/internal/netem"
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
		if r, _, ok := res.OneServer.Crossover(experiments.Mean, 0); ok {
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
		if r, _, ok := res.OneServer.Crossover(experiments.Mean, 0); ok {
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
		if r, _, ok := res.OneServer.Crossover(experiments.P95, 0); ok {
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
		out, err := experiments.RunFig6(benchDuration, 5)
		if err != nil {
			b.Fatal(err)
		}
		spread = out[0].EndToEnd.Box("").IQR() / (out[3].EndToEnd.Box("").IQR() + 1e-9)
	}
	b.ReportMetric(spread, "edge1-IQR/cloud10-IQR")
}

// BenchmarkFig7CutoffUtilization regenerates Figure 7: cutoff
// utilizations across the four cloud RTTs.
func BenchmarkFig7CutoffUtilization(b *testing.B) {
	var nearest, farthest float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunFig7(120, 11)
		if err != nil {
			b.Fatal(err)
		}
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
		res, err := experiments.RunAzureReplay(spec, 7)
		if err != nil {
			b.Fatal(err)
		}
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
		res, err := experiments.RunAzureReplay(spec, 7)
		if err != nil {
			b.Fatal(err)
		}
		sites := res.EdgeResult.Tiers[0].Sites
		best, worst := sites[0].EndToEnd.Median(), sites[0].EndToEnd.Median()
		for k := range sites {
			median := sites[k].EndToEnd.Median()
			best, worst = min(best, median), max(worst, median)
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
		rows, err := experiments.RunValidation(benchDuration, 42)
		if err != nil {
			b.Fatal(err)
		}
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

// --- Ablation benches ---

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

// replaySpec streams spec through topo, failing the benchmark on error.
func replaySpec(b *testing.B, spec cluster.GenSpec, topo cluster.Topology, opts cluster.Options) *cluster.TopologyResult {
	b.Helper()
	res, err := cluster.Run(cluster.Stream(spec), topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func ablationSpec(seed int64) cluster.GenSpec {
	return cluster.GenSpec{Sites: 5, Duration: benchDuration, PerSiteRate: 11, Seed: seed}
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
				res := replaySpec(b, ablationSpec(17), benchCloud(5, netem.Constant("zero", 0), pol),
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
		spec := cluster.GenSpec{Sites: 5, Duration: benchDuration, Seed: 19, Arrivals: procs}
		sc, _ := netem.ScenarioByName("typical-25ms")
		topo := benchEdge(5, 1, sc.Edge)
		topo.Tiers[0].JockeyThreshold, topo.Tiers[0].DetourRTT = jockey, 0.005
		return replaySpec(b, spec, topo, cluster.Options{Warmup: 20, Seed: 20}).MeanLatency()
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
	typical, _ := netem.ScenarioByName("typical-25ms")
	for _, scv := range []float64{0.0, 0.5, 1.0, 2.0} {
		b.Run(scvName(scv), func(b *testing.B) {
			var cross float64
			for i := 0; i < b.N; i++ {
				cfg := experiments.PaperPairSweep(typical, 1)
				cfg.Duration = benchDuration
				cfg.Model = app.NewInferenceModelWith(1.0/13, scv)
				res, err := experiments.RunTopologySweep(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r, _, ok := res.Crossover(experiments.Mean, 0); ok {
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
		spec := cluster.GenSpec{Sites: 5, Duration: benchDuration, Seed: 23, Arrivals: procs}
		topo := benchEdge(5, 0, netem.Constant("zero", 0))
		topo.Tiers[0].PerSiteServers = perSite
		return replaySpec(b, spec, topo, cluster.Options{Warmup: 20, Seed: 24}).MeanLatency()
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

// BenchmarkStream100M replays a 10⁸-request generated workload through
// the two-tier edge+overflow topology on a streaming generator source —
// nothing trace-sized is ever materialized, summaries stay bounded, so
// the run's resident memory is independent of the request count (the
// 10⁸-request acceptance scale). In short mode the same pipeline runs
// at 10⁶ requests: with O(1) streaming the allocation count barely
// moves with scale, so any per-request regression is glaring. Run with
// -benchmem.
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
			Warmup: 100, Seed: 72, NoPerSiteLatency: true,
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

// heapPeak samples the bytes held by live and unswept heap objects
// (runtime/metrics) every millisecond until the returned stop is
// called, and stop returns the largest sample in MB. A peak shorter
// than a millisecond can fall between samples.
func heapPeak() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		p := read()
		for {
			select {
			case <-done:
				peak <- max(p, read())
				return
			case <-tick.C:
				p = max(p, read())
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / (1 << 20)
	}
}

// BenchmarkShowcaseMillionSites replays 10⁸ requests through a
// million-station edge backed by a shared cloud pool on 4 sharded
// engines. Reported metrics: the peak live heap (boundary memory is
// bounded by ring capacity, not by the boundary count) and the peak
// resident boundary backlog. In short mode the same pipeline runs 10⁶ requests
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
		Warmup: 2, Seed: 98, NoPerSiteLatency: true,
	}
	b.ReportAllocs()
	stopPeak := heapPeak()
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
	b.ReportMetric(stopPeak(), "peak-heap-MB")
	b.ReportMetric(float64(backlog), "peak-backlog-records")
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
	mkSpec := func() cluster.GenSpec {
		procs := make([]workload.ArrivalProcess, 5)
		for i, r := range []float64{18, 5, 5, 3, 3} {
			procs[i] = workload.NewPoisson(r)
		}
		return cluster.GenSpec{Sites: 5, Duration: benchDuration, Seed: 51, Arrivals: procs}
	}
	sc, _ := netem.ScenarioByName("typical-25ms")
	b.Run("plain-edge", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			res := replaySpec(b, mkSpec(), benchEdge(5, 1, sc.Edge), cluster.Options{Warmup: 20, Seed: 52})
			m = res.MeanLatency()
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
	b.Run("overflow-to-cloud", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			res := replaySpec(b, mkSpec(), benchOverflow(5, 1, 5, 4, sc),
				cluster.Options{Warmup: 20, Seed: 52, NoPerSiteLatency: true})
			m = res.MeanLatency()
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
}

// BenchmarkAblationAutoscale measures the reactive controller against a
// static edge under the same skewed workload.
func BenchmarkAblationAutoscale(b *testing.B) {
	mkSpec := func() cluster.GenSpec {
		procs := make([]workload.ArrivalProcess, 5)
		for i, r := range []float64{16, 8, 6, 3, 3} {
			procs[i] = workload.NewPoisson(r)
		}
		return cluster.GenSpec{Sites: 5, Duration: benchDuration, Seed: 53, Arrivals: procs}
	}
	sc, _ := netem.ScenarioByName("typical-25ms")
	b.Run("static", func(b *testing.B) {
		var m float64
		for i := 0; i < b.N; i++ {
			res := replaySpec(b, mkSpec(), benchEdge(5, 1, sc.Edge), cluster.Options{Warmup: 20, Seed: 54})
			m = res.MeanLatency()
		}
		b.ReportMetric(m*1000, "mean-ms")
	})
	b.Run("autoscaled", func(b *testing.B) {
		var m float64
		var peak int
		for i := 0; i < b.N; i++ {
			topo := benchEdge(5, 1, sc.Edge)
			reactive := autoscale.Spec{
				Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 4,
				UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6,
			}
			topo.Tiers[0].Scaler = &reactive
			res := replaySpec(b, mkSpec(), topo, cluster.Options{Warmup: 20, Seed: 54, NoPerSiteLatency: true})
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

// genBoundSpec builds a generation-bound workload: a spiky NHPP
// envelope of 0.3-second bins (999 at 0.1 req/s, one at 4000 req/s).
// The sampler costs one draw per arrival plus one per crossed bin, so
// each 300-second cycle takes ~1,230 arrival draws and 1,000 bin draws.
func genBoundSpec(duration float64) cluster.GenSpec {
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

// BenchmarkParallelGen measures the generation front-end on a
// generation-bound NHPP workload: gen-serial drains cluster.Stream and
// gen-parallel the worker fan-out through ParallelStream (bit-identical
// records; the equivalence suite asserts it). Real parallel speedup
// needs real cores: on a single-CPU runner the workers serialize and
// the pair measures merge overhead. In short mode the trace shrinks
// ~10x.
func BenchmarkParallelGen(b *testing.B) {
	duration := 3000.0
	if testing.Short() {
		duration = 300
	}
	spec := genBoundSpec(duration)
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
}

// BenchmarkStreamSites measures the serial generator's cost per record
// as the site count grows: every record pops the (time, site) merge
// heap's minimum and sifts the site's next record back in, so the merge
// share grows with log(sites), and past ~10⁴ sites the per-site state
// stops fitting in cache. Each sub-benchmark drains ~10⁶ records (10⁵
// in short mode) of a renewal workload at 10 req/s per site and reports
// ns/rec, construction included.
func BenchmarkStreamSites(b *testing.B) {
	records := 1_000_000.0
	if testing.Short() {
		records = 100_000
	}
	const rate = 10.0
	for _, sites := range []int{10, 1_000, 30_000} {
		spec := cluster.GenSpec{Sites: sites, Duration: records / (rate * float64(sites)), PerSiteRate: rate, Seed: 101}
		b.Run("sites="+strconv.Itoa(sites), func(b *testing.B) {
			var n uint64
			for i := 0; i < b.N; i++ {
				n = drainCount(cluster.Stream(spec))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(n)), "ns/rec")
			b.ReportMetric(float64(n), "requests")
		})
	}
}

// BenchmarkTraceDecode measures replay-input decoding on pre-encoded
// ~200k-record traces: the request-CSV text decoder against the .etb
// binary decoder over the identical 8-site records, plus the binary
// decoder over 200 sites (etb-hierarchy-2core's shape, whose site ids
// from 128 up take 2-byte varints). Each reports ns/rec, the drain's
// time per decoded record. The allocs/op regression tests pin both
// decoders at a small constant; -benchmem shows it here. Bytes-on-disk
// for each trace ride along as metrics. In short mode the traces shrink
// ~10x.
func BenchmarkTraceDecode(b *testing.B) {
	scale := 1.0
	if testing.Short() {
		scale = 0.1
	}
	narrow := cluster.GenSpec{Sites: 8, Duration: 1250 * scale, PerSiteRate: 20, Seed: 93}
	wide := cluster.GenSpec{Sites: 200, Duration: 62.5 * scale, PerSiteRate: 16, Seed: 93}
	var csvBuf, etbBuf, wideBuf bytes.Buffer
	if _, err := trace.WriteRequestsCSV(&csvBuf, cluster.Stream(narrow)); err != nil {
		b.Fatal(err)
	}
	if _, err := trace.WriteBinary(&etbBuf, cluster.Stream(narrow)); err != nil {
		b.Fatal(err)
	}
	if _, err := trace.WriteBinary(&wideBuf, cluster.Stream(wide)); err != nil {
		b.Fatal(err)
	}
	csv := func(data []byte) cluster.FallibleSource { return trace.StreamRequestsCSV(bytes.NewReader(data)) }
	etb := func(data []byte) cluster.FallibleSource { return trace.StreamBinary(bytes.NewReader(data)) }
	for _, c := range []struct {
		name string
		data []byte
		open func([]byte) cluster.FallibleSource
	}{
		{"csv", csvBuf.Bytes(), csv},
		{"binary", etbBuf.Bytes(), etb},
		{"binary-200site", wideBuf.Bytes(), etb},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var n uint64
			for i := 0; i < b.N; i++ {
				src := c.open(c.data)
				n = drainCount(src)
				if err := src.Err(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rec")
			b.ReportMetric(float64(n), "requests")
			b.ReportMetric(float64(len(c.data)), "file-bytes")
		})
	}
}
