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
	p := edgebench.NewPoissonArrivals(7)
	if p.Rate() != 7 {
		t.Error("Poisson rate wrong")
	}
}

func TestPublicAPIAzure(t *testing.T) {
	spec := edgebench.DefaultAzureSpec()
	spec.Minutes = 3
	res, err := edgebench.RunAzureReplay(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sites := res.EdgeResult.Tiers[0].Sites; len(res.Series) != spec.Sites || len(sites) != spec.Sites {
		t.Fatalf("replay has %d series and %d edge sites, want %d each", len(res.Series), len(sites), spec.Sites)
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	dep := edgebench.Deployment{K: 5, ServersPerSite: 1, Mu: 13, EdgeRTT: 0.001, CloudRTT: 0.054}
	if dep.TailCutoffUtilization(0.95) >= dep.CutoffUtilizationExactMM() {
		t.Error("tail cutoff should precede mean cutoff")
	}
}

func TestPublicAPIMitigations(t *testing.T) {
	model := edgebench.NewInferenceModel()
	sc, _ := edgebench.ScenarioByName("typical-25ms")
	edge := edgebench.Tier{Name: "edge", Sites: 3, ServersPerSite: 1, Path: sc.Edge}
	run := func(topo edgebench.Topology) *edgebench.TopologyResult {
		// Arrival processes are stateful: each run builds its own.
		arrivals := make([]edgebench.ArrivalProcess, 3)
		for i, r := range []float64{15, 5, 4} {
			arrivals[i] = edgebench.NewPoissonArrivals(r)
		}
		src := edgebench.Stream(edgebench.GenSpec{Sites: 3, Duration: 200, Model: model, Seed: 9, Arrivals: arrivals})
		res, err := edgebench.RunTopology(src, topo, edgebench.TopologyOptions{Warmup: 20, Seed: 10})
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
}
