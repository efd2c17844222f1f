// Quickstart: decide whether an application belongs at the edge or in
// the cloud, first analytically with the paper's rules of thumb, then by
// simulating both deployments under the same workload.
package main

import (
	"fmt"

	edgebench "repro"
)

func main() {
	// The application: the paper's DNN inference service, saturating one
	// server at 13 req/s. Five edge sites (1 server each) 1 ms away, or
	// five cloud servers 25 ms away.
	model := edgebench.NewInferenceModel()
	dep := edgebench.Deployment{
		K:              5,
		ServersPerSite: 1,
		Mu:             model.Mu(),
		EdgeRTT:        0.001,
		CloudRTT:       0.025,
	}

	// Rule of thumb (§3): above this utilization the edge's queueing
	// delay outweighs its 24 ms network advantage.
	cutoff := dep.CutoffUtilizationExactMM()
	fmt.Printf("analytic cutoff utilization (exact M/M): %.0f%%\n", cutoff*100)

	// Verify by simulation at 8 req/s per server (61%% utilization).
	spec := edgebench.GenSpec{
		Sites:       5,
		Duration:    600,
		PerSiteRate: 8,
		Model:       model,
		Seed:        1,
	}
	sc, _ := edgebench.ScenarioByName("typical-25ms")
	// Each deployment is a one-tier Topology: five home-routed sites, or
	// five servers pooled behind one cloud queue. RunBroadcast streams
	// the one workload through both concurrently.
	edgeTopo := edgebench.Topology{Name: "edge", Tiers: []edgebench.Tier{
		{Name: "edge", Sites: 5, ServersPerSite: 1, Path: sc.Edge},
	}}
	cloudTopo := edgebench.Topology{Name: "cloud", Tiers: []edgebench.Tier{
		edgebench.CloudTier(5, sc.Cloud, edgebench.CentralQueue),
	}}
	runs, err := edgebench.RunBroadcast(edgebench.Stream(spec), []edgebench.Variant{
		{Label: "edge", Topology: edgeTopo, Opts: edgebench.TopologyOptions{Warmup: 60, Seed: 2}},
		{Label: "cloud", Topology: cloudTopo, Opts: edgebench.TopologyOptions{Warmup: 60, Seed: 3}},
	}, 0)
	if err != nil {
		panic(err)
	}
	edge, cloud := runs[0], runs[1]

	fmt.Printf("edge : mean %5.1f ms   p95 %6.1f ms   (utilization %.0f%%)\n",
		edge.MeanLatency()*1000, edge.P95Latency()*1000, edge.Utilization*100)
	fmt.Printf("cloud: mean %5.1f ms   p95 %6.1f ms\n",
		cloud.MeanLatency()*1000, cloud.P95Latency()*1000)

	switch {
	case edge.MeanLatency() > cloud.MeanLatency():
		fmt.Println("=> performance inversion: despite a 24 ms network advantage, the cloud wins.")
	case edge.P95Latency() > cloud.P95Latency():
		fmt.Println("=> tail inversion: the edge still wins on mean, but its p95 is already")
		fmt.Println("   worse than the cloud's — the paper's Figure 5 effect.")
	default:
		fmt.Println("=> the edge wins at this load.")
	}

	// Scale without the trace: Stream generates the spec on the fly in
	// O(sites) memory, and the latency collectors are bounded sketches,
	// so the same run shape works unchanged at 10⁸ requests (see
	// `edgesim -topology ...`). Replaying the identical spec+seed again
	// reproduces the edge numbers exactly.
	streamed, err := edgebench.RunTopology(edgebench.Stream(spec), edgeTopo,
		edgebench.TopologyOptions{Warmup: 60, Seed: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nstreamed replay (no trace in memory): %d requests, mean %5.1f ms (exact match: %v)\n",
		streamed.Offered, streamed.EndToEnd.Mean()*1000,
		streamed.EndToEnd.Mean() == edge.MeanLatency())
}
