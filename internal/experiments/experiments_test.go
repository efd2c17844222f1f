package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// paperPair returns the Figure 3 sweep config for a scenario preset.
func paperPair(scenario string, m int) TopologySweepConfig {
	sc, err := scenarioByName(scenario)
	if err != nil {
		panic(err)
	}
	return PaperPairSweep(sc, m)
}

// shortSweep returns a reduced-duration sweep for test speed.
func shortSweep(scenario string, rates []float64, m int, seed int64) TopologySweepResult {
	cfg := paperPair(scenario, m)
	cfg.Rates = rates
	cfg.Duration = 250
	cfg.Warmup = 25
	cfg.Seed = seed
	res, err := RunTopologySweep(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// TestRunSweepRejectsUnknownCloudPolicy: a config the engine cannot
// build comes back as an error from the runner instead of a panic
// inside a worker.
func TestRunSweepRejectsUnknownCloudPolicy(t *testing.T) {
	cfg := paperPair("typical-25ms", 1)
	cfg.Rates = []float64{6, 9}
	cfg.Duration = 20
	cfg.Warmup = 0
	cfg.Rivals[0].Tiers[0].Dispatch = "bogus"
	if _, err := RunTopologySweep(cfg); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want an error naming the bogus policy, got %v", err)
	}
	if _, err := RunReplicatedSweep(cfg, 2); err == nil {
		t.Fatal("RunReplicatedSweep accepted the bogus policy")
	}
	if _, _, _, err := CrossoverCI(cfg, Mean, 2); err == nil {
		t.Fatal("CrossoverCI accepted the bogus policy")
	}
}

// TestRunnersRejectBadNumbers: a spec that cannot be generated — a NaN
// duration or rate, no sites — comes back from every runner as an error
// naming the bad setting, not a generator panic; so does an infinite
// rate, which would never let the generator return, and a warmup at or
// past the duration, which would measure nothing.
func TestRunnersRejectBadNumbers(t *testing.T) {
	nan := math.NaN()
	sweep := paperPair("typical-25ms", 1)
	sweep.Rates = []float64{6, nan}
	sweep.Duration = 20
	nanDuration := paperPair("typical-25ms", 1)
	nanDuration.Duration = nan
	short := paperPair("typical-25ms", 1) // the pinned 60 s warmup
	short.Duration = 30
	topo, _ := cluster.PresetTopology("edge-regional-cloud")
	for name, tc := range map[string]struct {
		run  func() error
		want string // error substring
	}{
		"RunSweep": {func() error { _, err := RunTopologySweep(sweep); return err }, "GenSpec"},
		"RunGrid": {func() error {
			_, err := RunGrid(GridConfig{Rates: []float64{6}, Budgets: []int{10}, Duration: nan})
			return err
		}, "GenSpec"},
		"RunTopologySweep": {func() error {
			_, err := RunTopologySweep(TopologySweepConfig{Topology: topo, Rates: []float64{nan}, Duration: 20})
			return err
		}, "GenSpec"},
		"RunScalerComparison": {func() error {
			_, err := RunScalerComparison(ScalerComparisonConfig{Workload: ScalerWorkloadMMPP, Duration: nan})
			return err
		}, "GenSpec"},
		"RunScalerComparison-infinite-rate": {func() error {
			_, err := RunScalerComparison(ScalerComparisonConfig{BaseRate: math.Inf(1), Duration: 60})
			return err
		}, "BaseRate +Inf"},
		"RunScalerComparison-negative-rate": {func() error {
			_, err := RunScalerComparison(ScalerComparisonConfig{BaseRate: -2, Duration: 60})
			return err
		}, "BaseRate -2"},
		"RunScalerComparison-nan-mu": {func() error {
			_, err := RunScalerComparison(ScalerComparisonConfig{Mu: nan, Duration: 60})
			return err
		}, "Mu NaN"},
		"RunScalerComparison-infinite-mu": {func() error {
			_, err := RunScalerComparison(ScalerComparisonConfig{Mu: math.Inf(1), Duration: 60})
			return err
		}, "Mu +Inf"},
		"RunFig3":            {func() error { _, err := RunFig3("typical-25ms", nan, 1); return err }, "GenSpec"},
		"RunFig6":            {func() error { _, err := RunFig6(nan, 1); return err }, "GenSpec"},
		"RunFig7":            {func() error { _, err := RunFig7(nan, 1); return err }, "GenSpec"},
		"RunFigThreeTier":    {func() error { _, err := RunFigThreeTier(nan, 1); return err }, "GenSpec"},
		"RunValidation":      {func() error { _, err := RunValidation(nan, 1); return err }, "GenSpec"},
		"RunReplicatedSweep": {func() error { _, err := RunReplicatedSweep(nanDuration, 3); return err }, "GenSpec"},
		"CrossoverCI":        {func() error { _, _, _, err := CrossoverCI(nanDuration, Mean, 3); return err }, "GenSpec"},
		"RunAzureReplay-no-sites": {func() error {
			spec := trace.DefaultAzureSpec()
			spec.Sites = 0
			_, err := RunAzureReplay(spec, 1)
			return err
		}, "0 sites"},
		"RunAzureReplay-negative-minutes": {func() error {
			spec := trace.DefaultAzureSpec()
			spec.Minutes = -3
			_, err := RunAzureReplay(spec, 1)
			return err
		}, "-3 minutes"},
		"RunAzureReplay-nan-load": {func() error {
			spec := trace.DefaultAzureSpec()
			spec.BaseLoad = nan
			_, err := RunAzureReplay(spec, 1)
			return err
		}, "base load NaN"},
		"RunAzureReplay-infinite-load": {func() error {
			spec := trace.DefaultAzureSpec()
			spec.BaseLoad = math.Inf(1)
			_, err := RunAzureReplay(spec, 1)
			return err
		}, "base load +Inf"},

		"RunFig3-warmup-past-duration":       {func() error { _, err := RunFig3("typical-25ms", 30, 1); return err }, "warmup 60"},
		"RunFig7-warmup-past-duration":       {func() error { _, err := RunFig7(30, 1); return err }, "warmup 60"},
		"RunValidation-warmup-past-duration": {func() error { _, err := RunValidation(30, 1); return err }, "warmup 60"},
		"RunReplicatedSweep-warmup-past-duration": {func() error {
			_, err := RunReplicatedSweep(short, 3)
			return err
		}, "warmup 60"},
		"CrossoverCI-warmup-past-duration": {func() error {
			_, _, _, err := CrossoverCI(short, Mean, 3)
			return err
		}, "warmup 60"},
		"RunGrid-warmup-at-duration": {func() error {
			_, err := RunGrid(GridConfig{Rates: []float64{6}, Budgets: []int{10}, Duration: 60, Warmup: 60})
			return err
		}, "warmup 60"},
		"RunGrid-nan-warmup": {func() error {
			_, err := RunGrid(GridConfig{Rates: []float64{6}, Budgets: []int{10}, Duration: 60, Warmup: nan})
			return err
		}, "warmup NaN"},
		"RunScalerComparison-warmup-past-duration": {func() error {
			_, err := RunScalerComparison(ScalerComparisonConfig{Workload: ScalerWorkloadMMPP, Duration: 60, Warmup: 90})
			return err
		}, "warmup 90"},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error containing %q, got %v", name, tc.want, err)
		}
	}
}

func TestSweepShape(t *testing.T) {
	res := shortSweep("typical-25ms", []float64{6, 9, 12}, 1, 1)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Latencies positive and edge grows with rate.
	prevEdge := 0.0
	for i, run := range res.Points {
		rate, p, c := res.Config.Rates[i], &run.EndToEnd, &res.Rivals[0][i].EndToEnd
		if p.Mean() <= 0 || c.Mean() <= 0 || p.P95() <= 0 || c.P95() <= 0 {
			t.Fatalf("non-positive latency at rate %v", rate)
		}
		if p.P95() < p.Mean() || c.P95() < c.Mean() {
			t.Fatalf("p95 below mean at rate %v", rate)
		}
		if p.Mean() < prevEdge {
			t.Errorf("edge mean decreased at rate %v", rate)
		}
		prevEdge = p.Mean()
		if p.N() == 0 || c.N() == 0 {
			t.Fatal("empty samples")
		}
	}
	// Offered utilization bookkeeping.
	if got := res.Config.Rates[0] / res.Config.Model.Mu(); math.Abs(got-6.0/13) > 1e-9 {
		t.Errorf("utilization = %v", got)
	}
}

// TestFig3CrossoverNearPaper: the calibrated simulator should cross over
// within ±1.5 req/s of the paper's measured 8 req/s (k=5, Δn≈25ms).
func TestFig3CrossoverNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("long crossover sweep")
	}
	res := shortSweep("typical-25ms", []float64{6, 7, 8, 9, 10, 11, 12}, 1, 42)
	rate, _, ok := res.Crossover(Mean, 0)
	if !ok {
		t.Fatal("expected a mean-latency crossover")
	}
	if rate < 6.5 || rate > 10.5 {
		t.Errorf("crossover at %.1f req/s (util %.2f), paper measured 8", rate, rate/res.Config.Model.Mu())
	}
}

// TestDistantCloudCrossesLater: Figure 4's point — a 54 ms cloud moves
// the crossover to a higher rate than the 25 ms cloud.
func TestDistantCloudCrossesLater(t *testing.T) {
	if testing.Short() {
		t.Skip("long comparison sweep")
	}
	rates := []float64{6, 7, 8, 9, 10, 11, 12}
	typical := shortSweep("typical-25ms", rates, 1, 7)
	distant := shortSweep("distant-54ms", rates, 1, 7)
	rT, _, okT := typical.Crossover(Mean, 0)
	rD, _, okD := distant.Crossover(Mean, 0)
	if okT && okD && rD <= rT {
		t.Errorf("distant crossover %.1f should exceed typical %.1f", rD, rT)
	}
	if okT && !okD {
		return // distant never inverts in range: consistent with "later"
	}
	if !okT {
		t.Error("typical cloud should invert within the sweep")
	}
}

// TestTailInvertsBeforeMean: Figure 5's insight — at any rate where the
// mean has inverted, the p95 must have inverted too (p95 crossover ≤
// mean crossover).
func TestTailInvertsBeforeMean(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	res := shortSweep("distant-54ms", []float64{6, 8, 10, 11, 12}, 1, 3)
	rMean, _, okMean := res.Crossover(Mean, 0)
	rP95, _, okP95 := res.Crossover(P95, 0)
	if okMean && !okP95 {
		t.Fatal("mean inverted but p95 did not")
	}
	if okMean && okP95 && rP95 > rMean+0.5 {
		t.Errorf("p95 crossover %.1f should not exceed mean crossover %.1f", rP95, rMean)
	}
}

func TestCrossoverInterpolation(t *testing.T) {
	// Synthetic sweep: edge−cloud diff goes −10ms at rate 8 to +10ms at
	// rate 9 → crossover at exactly 8.5.
	// The rival's p95 stays above the edge's at both rates.
	res := TopologySweepResult{Config: paperPair("typical-25ms", 1)}
	res.Config.Rates = []float64{8, 9}
	res.Points = []*cluster.TopologyResult{latencies(0.080, 0.100), latencies(0.100, 0.120)}
	res.Rivals = [][]*cluster.TopologyResult{{latencies(0.100, 0.100), latencies(0.050, 0.150)}}
	rate, _, ok := res.Crossover(Mean, 0)
	if !ok {
		t.Fatal("expected crossover")
	}
	if math.Abs(rate-8.5) > 1e-9 {
		t.Errorf("interpolated crossover = %v, want 8.5", rate)
	}
	if util := rate / res.Config.Model.Mu(); math.Abs(util-8.5/13) > 1e-9 {
		t.Errorf("interpolated util = %v", util)
	}
	// P95 never crosses.
	if _, _, ok := res.Crossover(P95, 0); ok {
		t.Error("p95 should not cross in this synthetic sweep")
	}
}

func TestCrossoverFirstPointAlreadyInverted(t *testing.T) {
	res := TopologySweepResult{Config: paperPair("typical-25ms", 1)}
	res.Config.Rates = []float64{6}
	res.Points = []*cluster.TopologyResult{latencies(0.2)}
	res.Rivals = [][]*cluster.TopologyResult{{latencies(0.1)}}
	rate, atFloor, ok := res.Crossover(Mean, 0)
	if !ok || !atFloor || rate != 6 {
		t.Errorf("already-inverted sweep: rate=%v atFloor=%v ok=%v", rate, atFloor, ok)
	}
}

// latencies returns a run whose end-to-end latencies are xs (seconds).
func latencies(xs ...float64) *cluster.TopologyResult {
	run := &cluster.TopologyResult{}
	for _, x := range xs {
		run.EndToEnd.Add(x)
	}
	return run
}

func TestMetricString(t *testing.T) {
	if Mean.String() != "mean" || P95.String() != "p95" {
		t.Error("metric names wrong")
	}
}

func TestRunFig6Shapes(t *testing.T) {
	out, err := RunFig6(150, 5)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"edge, 1 server", "edge, 2 servers", "cloud, 5 servers", "cloud, 10 servers"}
	if len(out) != len(labels) {
		t.Fatalf("Fig6 runs = %d, want %d", len(out), len(labels))
	}
	for i, run := range out {
		if run.Label != labels[i] {
			t.Errorf("run %d labelled %q, want %q", i, run.Label, labels[i])
		}
		if run.EndToEnd.N() == 0 {
			t.Fatalf("%s: empty distribution", run.Label)
		}
		if run.EndToEnd.Mean() <= 0 {
			t.Fatalf("%s: non-positive mean", run.Label)
		}
	}
	// Figure 6's visual: the 1-server edge has the widest distribution
	// (longest whisker-to-whisker span) at 10 req/s.
	edge1 := out[0].EndToEnd.Box(out[0].Label)
	cloud10 := out[3].EndToEnd.Box(out[3].Label)
	if edge1.IQR() <= cloud10.IQR() {
		t.Errorf("edge-1 IQR %v should exceed cloud-10 IQR %v", edge1.IQR(), cloud10.IQR())
	}
}

func TestRunFig7Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("fig 7 sweep is long")
	}
	points, err := RunFig7(150, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("Fig7 points = %d", len(points))
	}
	prevMean := -1.0
	for _, p := range points {
		if p.MeanCutoff < prevMean-0.08 {
			t.Errorf("mean cutoff not (approximately) increasing with RTT: %+v", points)
		}
		prevMean = p.MeanCutoff
		// Tail cutoff at or below mean cutoff.
		if p.P95Cutoff > p.MeanCutoff+0.05 {
			t.Errorf("%s: p95 cutoff %v above mean cutoff %v", p.Scenario, p.P95Cutoff, p.MeanCutoff)
		}
	}
}

func TestRunAzureReplayShapes(t *testing.T) {
	spec := trace.DefaultAzureSpec()
	spec.Minutes = 6
	res, err := RunAzureReplay(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != spec.Sites {
		t.Fatal("series count wrong")
	}
	edge, cloud := res.EdgeResult, res.CloudResult
	if edge.Timeline == nil || cloud.Timeline == nil {
		t.Fatal("timelines missing")
	}
	if sites := edge.Tiers[0].Sites; len(sites) != spec.Sites {
		t.Fatalf("edge sites = %d", len(sites))
	}
	if cloud.EndToEnd.N() == 0 {
		t.Fatal("cloud run empty")
	}
	// The aggregated cloud sees a smoother latency series than the edge
	// (the paper's smoothing observation): compare coefficient of
	// variation across minute bins.
	cvE := seriesCV(edge.Timeline.Means())
	cvC := seriesCV(cloud.Timeline.Means())
	if cvC >= cvE {
		t.Errorf("cloud timeline CV %v should be below edge %v", cvC, cvE)
	}
}

func seriesCV(xs []float64) float64 {
	var n, sum float64
	for _, x := range xs {
		if x > 0 {
			sum += x
			n++
		}
	}
	if n < 2 {
		return 0
	}
	mean := sum / n
	var m2 float64
	for _, x := range xs {
		if x > 0 {
			m2 += (x - mean) * (x - mean)
		}
	}
	return math.Sqrt(m2/(n-1)) / mean
}

func TestRunValidationAgainstPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("validation sweep is long")
	}
	rows, err := RunValidation(250, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("validation rows = %d", len(rows))
	}
	// Paper-convention predictions ≈ the published 0.64 and 0.75.
	if math.Abs(rows[0].PaperCutoff-0.64) > 0.04 {
		t.Errorf("k=5 paper cutoff = %v, want ~0.64", rows[0].PaperCutoff)
	}
	if math.Abs(rows[1].PaperCutoff-0.75) > 0.04 {
		t.Errorf("k=10 paper cutoff = %v, want ~0.75", rows[1].PaperCutoff)
	}
	// Measured crossovers exist and land at moderate utilization.
	for _, r := range rows {
		if r.MeasuredUtil < 0.4 || r.MeasuredUtil > 0.95 {
			t.Errorf("%s: measured cutoff %v implausible", r.Label, r.MeasuredUtil)
		}
	}
	// Two-server case crosses later than one-server (paper: 8 vs 11).
	if rows[1].MeasuredUtil <= rows[0].MeasuredUtil {
		t.Errorf("2-server cutoff %v should exceed 1-server %v",
			rows[1].MeasuredUtil, rows[0].MeasuredUtil)
	}
}

func TestRunCapacityTable(t *testing.T) {
	rows := RunCapacityTable([]float64{100}, []int{5, 50})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EdgeCapacity <= r.CloudCapacity {
			t.Errorf("edge capacity should exceed cloud: %+v", r)
		}
		if r.EdgeServers < r.CloudServers {
			t.Errorf("edge servers should be >= cloud servers: %+v", r)
		}
	}
	if rows[1].Overhead <= rows[0].Overhead {
		t.Error("overhead should grow with k")
	}
}
