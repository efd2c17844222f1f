package cluster

import (
	"testing"

	"repro/internal/autoscale"
	"repro/internal/netem"
	"repro/internal/workload"
)

func skewedTrace(rates []float64, duration float64, seed int64) *WorkloadTrace {
	procs := make([]workload.ArrivalProcess, len(rates))
	for i, r := range rates {
		procs[i] = workload.NewPoisson(r)
	}
	return Generate(GenSpec{Sites: len(rates), Duration: duration, Seed: seed, Arrivals: procs})
}

func TestOverflowForwardsHotSiteTraffic(t *testing.T) {
	// Site 0 at ~150% of one server; others cool.
	tr := skewedTrace([]float64{20, 4, 4, 4, 4}, 400, 31)
	sc, _ := netem.ScenarioByName("typical-25ms")
	res := overflowConfig{
		Sites: 5, ServersPerSite: 1,
		EdgePath: sc.Edge, CloudPath: sc.Cloud,
		CloudServers: 5, OverflowThreshold: 4,
		Warmup: 40, Seed: 32,
	}.run(t, tr)
	edge, cloud := res.Tiers[0], res.Tiers[1]
	if edge.Spilled == 0 {
		t.Fatal("expected overflow from the saturated site")
	}
	if edge.Served == 0 || cloud.Served == 0 {
		t.Fatalf("split wrong: edge %d cloud %d", edge.Served, cloud.Served)
	}
	// Overflowed requests pay the cloud RTT: their mean latency should
	// exceed the home-served mean at the cool sites, but stay bounded.
	if cloud.EndToEnd.Mean() <= sc.Cloud.MeanRTT() {
		t.Error("overflowed latency should include the cloud RTT")
	}
	// Every record is accounted for.
	if edge.Served+cloud.Served != uint64(res.EndToEnd.N()) {
		t.Error("split does not sum to total")
	}
}

// TestOverflowBeatsPlainEdgeUnderSaturation: with a saturated hot site,
// overflowing to the cloud must dramatically beat the plain edge.
func TestOverflowBeatsPlainEdgeUnderSaturation(t *testing.T) {
	tr := skewedTrace([]float64{18, 5, 5, 3, 3}, 500, 33)
	sc, _ := netem.ScenarioByName("typical-25ms")
	plain := edgeConfig{
		Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 50, Seed: 34,
	}.run(t, tr)
	over := overflowConfig{
		Sites: 5, ServersPerSite: 1,
		EdgePath: sc.Edge, CloudPath: sc.Cloud,
		CloudServers: 5, OverflowThreshold: 4,
		Warmup: 50, Seed: 34,
	}.run(t, tr)
	if over.MeanLatency() >= plain.MeanLatency()/2 {
		t.Errorf("overflow mean %v should be far below plain edge %v",
			over.MeanLatency(), plain.MeanLatency())
	}
}

// TestOverflowRareWhenUnderloaded: a lightly loaded edge should almost
// never overflow.
func TestOverflowRareWhenUnderloaded(t *testing.T) {
	tr := skewedTrace([]float64{3, 3, 3, 3, 3}, 300, 35)
	sc, _ := netem.ScenarioByName("typical-25ms")
	res := overflowConfig{
		Sites: 5, ServersPerSite: 1,
		EdgePath: sc.Edge, CloudPath: sc.Cloud,
		CloudServers: 5, OverflowThreshold: 6,
		Seed: 36,
	}.run(t, tr)
	frac := float64(res.Tiers[0].Spilled) / float64(tr.Len())
	if frac > 0.02 {
		t.Errorf("%.1f%% of a light workload overflowed", frac*100)
	}
}

// TestOverflowConfigPanics: each bad spill deployment is an error from
// Run (the name predates Run returning errors) — a zero-server cloud, a
// zero spill threshold, and a 2-site source into a 1-site edge.
func TestOverflowConfigPanics(t *testing.T) {
	z := netem.Constant("z", 0)
	spill := func(edgeSites, cloudServers, threshold int) Topology {
		return Topology{
			Tiers:  []Tier{{Name: "edge", Sites: edgeSites, Path: z}, CloudTier(cloudServers, z, "")},
			Spills: []SpillEdge{{From: "edge", To: "cloud", Threshold: threshold}},
		}
	}
	wantRunError(t, 1, spill(1, 0, 1), "at least one site")
	wantRunError(t, 1, spill(1, 2, 0), "positive threshold")
	wantRunError(t, 2, spill(1, 2, 1), "home site 1 outside tier")
}

// TestAutoscaledEdgeAvoidsInversion: the paper's future-work claim made
// concrete — under a skewed workload that inverts the static edge, the
// autoscaled edge stays competitive with the cloud.
func TestAutoscaledEdgeAvoidsInversion(t *testing.T) {
	tr := skewedTrace([]float64{16, 8, 6, 3, 3}, 500, 37)
	sc, _ := netem.ScenarioByName("typical-25ms")
	static := edgeConfig{
		Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 50, Seed: 38,
	}.run(t, tr)
	scaledCfg := edgeConfig{Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 50, Seed: 38}
	scaled := replay(t, tr, autoscaledTopology(scaledCfg, autoscale.Spec{Policy: autoscale.PolicyReactive,
		Interval: 2, Min: 1, Max: 4, UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6,
	}), scaledCfg.options())
	cloud := cloudConfig{Servers: 5, Path: sc.Cloud, Warmup: 50, Seed: 39}.run(t, tr)

	if scaled.Tiers[0].ScaleUps == 0 {
		t.Fatal("autoscaler never scaled up")
	}
	if scaled.MeanLatency() >= static.MeanLatency() {
		t.Errorf("autoscaled mean %v should beat static %v", scaled.MeanLatency(), static.MeanLatency())
	}
	// Reactive scaling lags bursts, so allow some residual gap to the
	// pooled cloud while requiring the bulk of the inversion removed.
	if static.MeanLatency() > cloud.MeanLatency() && scaled.MeanLatency() > cloud.MeanLatency()*2 {
		t.Errorf("autoscaled edge %v still far above cloud %v", scaled.MeanLatency(), cloud.MeanLatency())
	}
	if len(scaled.Tiers[0].FinalServers) != 5 {
		t.Error("per-site server counts missing")
	}
	if scaled.Tiers[0].PeakServers < 2 {
		t.Error("peak servers should exceed the starting allocation")
	}
}

// TestBoundedQueueDropsUnderOverload: with QueueCap set, a saturated
// deployment sheds load instead of growing unbounded queues (§4.2's
// "starts dropping requests").
func TestBoundedQueueDropsUnderOverload(t *testing.T) {
	tr := skewedTrace([]float64{30, 2, 2, 2, 2}, 300, 40)
	res := edgeConfig{
		Sites: 5, ServersPerSite: 1, Path: netem.Constant("z", 0),
		Warmup: 30, Seed: 41, QueueCap: 10,
	}.run(t, tr)
	if res.Dropped == 0 {
		t.Fatal("saturated bounded queue should drop requests")
	}
	// With a bounded queue, the served latency stays bounded by roughly
	// (cap+1) service times plus slack.
	maxWait := res.Wait.Quantile(1)
	if maxWait > 11.0/13*3 {
		t.Errorf("max wait %v too large for a 10-deep bounded queue", maxWait)
	}
	// Conservation: completions + drops = all requests after warmup
	// (approximately: warmup filtering applies to both).
	if res.Completed == 0 {
		t.Fatal("no completions recorded")
	}
}
