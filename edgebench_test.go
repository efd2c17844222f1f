package edgebench_test

import (
	"math"
	"testing"

	edgebench "repro"
)

// TestPublicAPIQuickstart exercises the README's quickstart path through
// the re-exported root API only.
func TestPublicAPIQuickstart(t *testing.T) {
	model := edgebench.NewInferenceModel()
	dep := edgebench.Deployment{
		K: 5, ServersPerSite: 1, Mu: model.Mu(),
		EdgeRTT: 0.001, CloudRTT: 0.025,
	}
	cutoff := dep.CutoffUtilizationExactMM()
	if cutoff <= 0 || cutoff >= 1 {
		t.Fatalf("cutoff = %v, want interior", cutoff)
	}

	src := edgebench.Stream(edgebench.GenSpec{
		Sites: 5, Duration: 200, PerSiteRate: 8, Model: model, Seed: 1,
	})
	sc, ok := edgebench.ScenarioByName("typical-25ms")
	if !ok {
		t.Fatal("scenario missing")
	}
	runs, err := edgebench.RunBroadcast(src, []edgebench.Variant{
		{Label: "edge", Opts: edgebench.TopologyOptions{Warmup: 20, Seed: 2},
			Topology: edgebench.Topology{Name: "edge", Tiers: []edgebench.Tier{
				{Name: "edge", Sites: 5, ServersPerSite: 1, Path: sc.Edge}}}},
		{Label: "cloud", Opts: edgebench.TopologyOptions{Warmup: 20, Seed: 3},
			Topology: edgebench.Topology{Name: "cloud", Tiers: []edgebench.Tier{
				edgebench.CloudTier(5, sc.Cloud, edgebench.CentralQueue)}}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	edge, cloud := runs[0], runs[1]
	if edge.EndToEnd.N() == 0 || cloud.EndToEnd.N() == 0 {
		t.Fatal("runs produced no measurements")
	}
	if edge.MeanLatency() <= sc.Edge.MeanRTT() {
		t.Error("edge latency should exceed its network RTT")
	}
}

func TestPublicAPITheoryHelpers(t *testing.T) {
	if w := edgebench.MM1Wait(0.5, 1); math.Abs(w-1) > 1e-12 {
		t.Errorf("MM1Wait = %v", w)
	}
	if c := edgebench.ErlangC(2, 1); math.Abs(c-1.0/3) > 1e-9 {
		t.Errorf("ErlangC = %v", c)
	}
	cloud, edge, overhead := edgebench.TwoSigmaCapacity(100, 5)
	if edge <= cloud || overhead <= 1 {
		t.Error("two-sigma capacities wrong")
	}
	if edgebench.SaturationRate != 13 {
		t.Error("saturation rate changed")
	}
}

func TestPublicAPIWorkloadHelpers(t *testing.T) {
	z := edgebench.ZipfPartition(5, 1)
	w := z.Weights(0)
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Error("Zipf weights should sum to 1")
	}
	u := edgebench.UniformPartition(4)
	if u.Sites() != 4 {
		t.Error("uniform partition sites wrong")
	}
	d := edgebench.FitDistToMeanSCV(2, 1.5)
	if math.Abs(d.Mean()-2) > 1e-9 {
		t.Error("FitDistToMeanSCV mean wrong")
	}
	p := edgebench.NewPoissonArrivals(7)
	if p.Rate() != 7 {
		t.Error("Poisson rate wrong")
	}
}

func TestPublicAPIAzure(t *testing.T) {
	spec := edgebench.DefaultAzureSpec()
	spec.Minutes = 3
	series := edgebench.GenerateAzure(spec)
	if len(series) != spec.Sites {
		t.Fatal("series count wrong")
	}
	procs := edgebench.ToArrivalProcesses(series, false)
	if len(procs) != spec.Sites {
		t.Fatal("process count wrong")
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	// Tail analysis.
	q := edgebench.MMcWaitQuantile(5, 0.8, 13, 0.95)
	if q <= 0 {
		t.Error("p95 wait quantile should be positive at ρ=0.8")
	}
	if ccdf := edgebench.MMcWaitCCDF(5, 0.8, 13, q); math.Abs(ccdf-0.05) > 1e-9 {
		t.Errorf("CCDF(quantile) = %v, want 0.05", ccdf)
	}
	dep := edgebench.Deployment{K: 5, ServersPerSite: 1, Mu: 13, EdgeRTT: 0.001, CloudRTT: 0.054}
	if dep.TailCutoffUtilization(0.95) >= dep.CutoffUtilizationExactMM() {
		t.Error("tail cutoff should precede mean cutoff")
	}

	// Loss model.
	if p := edgebench.MMcKLossProbability(1, 5, 1.2); p <= 0 || p >= 1 {
		t.Errorf("loss probability %v outside (0,1)", p)
	}
	if tp := edgebench.EffectiveThroughput(5, 10, 200, 13); tp > 5*13*1.02 {
		t.Errorf("effective throughput %v exceeds capacity", tp)
	}

	// Economics.
	c := edgebench.CompareCost(100, 5, 13, 0.024, edgebench.DefaultPricing())
	if c.NoInversionCostRatio <= 1 {
		t.Error("edge should cost more than the cloud at a 1.5x premium")
	}
	if be := edgebench.BreakEvenEdgePremium(100, 5, 13, 0.024); be <= 0 || be > 1 {
		t.Errorf("break-even premium %v outside (0,1]", be)
	}
	if edgebench.AutoscaledCost(3600, edgebench.DefaultPricing()) <= 0 {
		t.Error("autoscaled cost should be positive")
	}

	// Forecasting.
	f := edgebench.NewHoltForecaster(0.5, 0.5)
	for i := 0; i < 20; i++ {
		f.Observe(float64(10 + 2*i))
	}
	if f.Predict() < 40 {
		t.Errorf("Holt on a ramp predicts %v, want ~50", f.Predict())
	}
	mae, _ := edgebench.EvaluateForecast(edgebench.NewEWMAForecaster(0.5), []float64{1, 1, 1})
	if mae != 0 {
		t.Error("EWMA on constant series should be error-free")
	}
}

func TestPublicAPIMitigations(t *testing.T) {
	model := edgebench.NewInferenceModel()
	sc, _ := edgebench.ScenarioByName("typical-25ms")
	// Arrival processes are stateful: each run re-derives its own.
	newSource := edgebench.StreamFactory(func() edgebench.GenSpec {
		arrivals := make([]edgebench.ArrivalProcess, 3)
		for i, r := range []float64{15, 5, 4} {
			arrivals[i] = edgebench.NewPoissonArrivals(r)
		}
		return edgebench.GenSpec{Sites: 3, Duration: 200, Model: model, Seed: 9, Arrivals: arrivals}
	})
	edge := edgebench.Tier{Name: "edge", Sites: 3, ServersPerSite: 1, Path: sc.Edge}
	run := func(topo edgebench.Topology) *edgebench.TopologyResult {
		res, err := edgebench.RunTopology(newSource(), topo, edgebench.TopologyOptions{Warmup: 20, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	over := run(edgebench.Topology{
		Tiers:  []edgebench.Tier{edge, edgebench.CloudTier(3, sc.Cloud, edgebench.CentralQueue)},
		Spills: []edgebench.SpillEdge{{From: "edge", To: "cloud", Threshold: 4, DetourPath: &sc.Cloud}},
	})
	if over.Tiers[0].Spilled == 0 {
		t.Error("hot site should overflow")
	}
	reactive := edgebench.ScalerSpec{
		Policy: "reactive", Interval: 2, Min: 1, Max: 3, UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 5,
	}
	edge.Scaler = &reactive
	if scaled := run(edgebench.Topology{Tiers: []edgebench.Tier{edge}}); scaled.Tiers[0].ScaleUps == 0 {
		t.Error("autoscaler should scale up the hot site")
	}
	// Timeline tooling over a replay.
	spec := edgebench.DefaultAzureSpec()
	spec.Minutes = 5
	res, err := edgebench.RunAzureReplay(spec, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	frac, _ := edgebench.InversionFraction(res.EdgeTimeline, res.CloudTimeline)
	if frac < 0 || frac > 1 {
		t.Errorf("inversion fraction %v outside [0,1]", frac)
	}
}
