// Capacity planner: the paper's §5 design implications end to end. Given
// a skewed workload forecast, (1) plan per-site capacity with Eq. 22 and
// a headroom factor, (2) verify by simulation that the plan removes the
// inversion, and (3) compare against the two run-time mitigations —
// reactive autoscaling (the paper's future work) and hierarchical
// overflow to a cloud backstop — including their capacity cost.
package main

import (
	"fmt"

	edgebench "repro"
)

func main() {
	model := edgebench.NewInferenceModel()
	sc, _ := edgebench.ScenarioByName("typical-25ms")

	// Forecast: five sites with a strong spatial skew; the hot site alone
	// exceeds one server's 13 req/s capacity.
	forecast := []float64{16, 9, 6, 4, 4}
	var total float64
	for _, l := range forecast {
		total += l
	}
	fmt.Printf("forecast per-site load: %v req/s (total %.0f, cloud would use %d servers)\n\n",
		forecast, total, 5)

	// (1) Static plan from Equation 22 with 20% headroom.
	plan := edgebench.PlanEdgeCapacity(sc.DeltaN(), model.Mu(), forecast, 5, 1.2, 16)
	fmt.Printf("§5.1 static plan (Eq. 22, 1.2x headroom): per-site %v, edge total %d vs cloud %d\n",
		plan.PerSite, plan.TotalEdge, plan.CloudTotal)

	// (2) Verify by simulation.
	arrivals := make([]edgebench.ArrivalProcess, len(forecast))
	for i, l := range forecast {
		arrivals[i] = edgebench.NewPoissonArrivals(l)
	}
	src := edgebench.Stream(edgebench.GenSpec{
		Sites: 5, Duration: 600, Model: model, Seed: 3, Arrivals: arrivals,
	})

	// Every deployment replays the same stream in one broadcast pass.
	edge := edgebench.Tier{Name: "edge", Sites: 5, ServersPerSite: 1, Path: sc.Edge}
	planTier := edge
	planTier.PerSiteServers = plan.PerSite
	cloudTier := edgebench.CloudTier(5, sc.Cloud, edgebench.CentralQueue)

	// (3) Run-time mitigations on the unplanned 1-server-per-site edge:
	// a reactive autoscaler, or overflow into the cloud at site load 4.
	reactive := edgebench.ScalerSpec{
		Policy: "reactive", Interval: 2, Min: 1, Max: 4,
		UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6,
	}
	scaledTier := edge
	scaledTier.Scaler = &reactive

	variant := func(name string, seed int64, tiers ...edgebench.Tier) edgebench.Variant {
		return edgebench.Variant{Label: name, Topology: edgebench.Topology{Name: name, Tiers: tiers},
			Opts: edgebench.TopologyOptions{Warmup: 60, Seed: seed}}
	}
	over := variant("edge+overflow", 4, edge, cloudTier)
	over.Topology.Spills = []edgebench.SpillEdge{{From: "edge", To: "cloud", Threshold: 4, DetourPath: &sc.Cloud}}
	runs, err := edgebench.RunBroadcast(src, []edgebench.Variant{
		variant("edge", 4, edge),
		variant("cloud", 5, cloudTier),
		variant("edge+plan", 4, planTier),
		variant("edge+autoscale", 4, scaledTier),
		over,
	}, 0)
	if err != nil {
		panic(err)
	}
	naive, cloud, planned, scaled, overflow := runs[0], runs[1], runs[2], runs[3], runs[4]

	fmt.Println("\nmeasured end-to-end latency:")
	fmt.Printf("  %-34s mean %8.1f ms   p95 %9.1f ms\n", "cloud (5 servers, 25 ms away)",
		cloud.MeanLatency()*1000, cloud.P95Latency()*1000)
	fmt.Printf("  %-34s mean %8.1f ms   p95 %9.1f ms\n", "edge, naive (1 server/site)",
		naive.MeanLatency()*1000, naive.P95Latency()*1000)
	fmt.Printf("  %-34s mean %8.1f ms   p95 %9.1f ms   (%d servers)\n", "edge, planned capacity",
		planned.MeanLatency()*1000, planned.P95Latency()*1000, plan.TotalEdge)
	fmt.Printf("  %-34s mean %8.1f ms   p95 %9.1f ms   (peak %d servers at one site)\n",
		"edge, autoscaled", scaled.MeanLatency()*1000, scaled.P95Latency()*1000, scaled.Tiers[0].PeakServers)
	fmt.Printf("  %-34s mean %8.1f ms   p95 %9.1f ms   (%.0f%% overflowed to cloud)\n",
		"edge, cloud overflow", overflow.MeanLatency()*1000, overflow.P95Latency()*1000,
		100*float64(overflow.Tiers[0].Spilled)/float64(overflow.Offered))

	fmt.Println("\n§5.2 capacity cost: the planned edge uses",
		plan.TotalEdge, "servers where the cloud pools", plan.CloudTotal, "—")
	_, _, overhead := edgebench.TwoSigmaCapacity(total, 5)
	fmt.Printf("the two-sigma rule predicts a %.2fx edge overprovisioning factor for this λ and k.\n", overhead)

	if planned.MeanLatency() < cloud.MeanLatency() {
		fmt.Println("\n=> with capacity matched to the skew, the edge regains its advantage (Lemma 3.3).")
	} else {
		fmt.Println("\n=> even the planned edge does not beat the cloud here — inversion persists (Lemma 3.1).")
	}
}
