// Three-tier hierarchy: the declarative topology layer expresses
// deployment shapes the paper's fixed edge/cloud pair cannot — here an
// edge→regional→cloud overflow chain built programmatically, run
// against the pure edge and pure cloud on the same skewed workload.
// The hot site escalates work one network hop at a time instead of
// queueing locally (inversion) or paying the full cloud RTT for
// everything.
package main

import (
	"fmt"

	edgebench "repro"
)

func main() {
	model := edgebench.NewInferenceModel()
	sc, _ := edgebench.ScenarioByName("typical-25ms")
	regional := edgebench.JitteredPath("regional-13ms", 0.013, 0.002)

	// A skewed workload: the first site runs near one server's
	// saturation while the rest idle — the regime where partitioned
	// near capacity loses to pooled far capacity (§4.4).
	const sites = 5
	weights := edgebench.ZipfPartition(sites, 1.1).W
	aggregate := 0.75 * edgebench.SaturationRate * sites
	arrivals := make([]edgebench.ArrivalProcess, sites)
	for i, w := range weights {
		arrivals[i] = edgebench.NewPoissonArrivals(aggregate * w)
	}
	src := edgebench.Stream(edgebench.GenSpec{
		Sites: sites, Duration: 600, Model: model, Seed: 31, Arrivals: arrivals,
	})

	// The chain: 5 edge servers, 2 regional, 3 cloud — 10 total, the
	// same budget as the pure shapes below.
	chain := edgebench.Topology{
		Name: "edge-regional-cloud",
		Tiers: []edgebench.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 1, Path: sc.Edge},
			{Name: "regional", Sites: 1, ServersPerSite: 2, Path: regional,
				Dispatch: "central-queue"},
			{Name: "cloud", Sites: 1, ServersPerSite: 3, Path: sc.Cloud,
				Dispatch: "central-queue"},
		},
		Spills: []edgebench.SpillEdge{
			{From: "edge", To: "regional", Threshold: 3, DetourPath: &regional},
			{From: "regional", To: "cloud", Threshold: 4, DetourPath: &sc.Cloud},
		},
	}

	opts := func(seed int64) edgebench.TopologyOptions {
		return edgebench.TopologyOptions{Warmup: 60, Seed: seed}
	}
	runs, err := edgebench.RunBroadcast(src, []edgebench.Variant{
		{Label: "edge", Opts: opts(41), Topology: edgebench.Topology{Name: "edge", Tiers: []edgebench.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 2, Path: sc.Edge},
		}}},
		{Label: "cloud", Opts: opts(42), Topology: edgebench.Topology{Name: "cloud", Tiers: []edgebench.Tier{
			edgebench.CloudTier(10, sc.Cloud, edgebench.CentralQueue),
		}}},
		{Label: chain.Name, Opts: opts(43), Topology: chain},
	}, 0)
	if err != nil {
		panic(err)
	}
	edge, cloud, chained := runs[0], runs[1], runs[2]

	fmt.Printf("skewed workload: %.1f req/s aggregate, hottest site %.0f%%\n\n",
		aggregate, weights[0]*100)
	show := func(name string, mean, p95 float64) {
		fmt.Printf("%-28s mean %7.1f ms   p95 %8.1f ms\n", name, mean*1000, p95*1000)
	}
	show("edge (5x2)", edge.MeanLatency(), edge.P95Latency())
	show("cloud (10)", cloud.MeanLatency(), cloud.P95Latency())
	show("edge+regional+cloud (5+2+3)", chained.MeanLatency(), chained.P95Latency())

	fmt.Println("\nwhere the chain served its requests:")
	for _, tier := range chained.Tiers {
		fmt.Printf("  %-9s served %5d (%4.1f%%)  spilled on %5d  mean %7.1f ms\n",
			tier.Name, tier.Served,
			100*float64(tier.Served)/float64(chained.Completed),
			tier.Spilled, tier.EndToEnd.Mean()*1000)
	}

	switch {
	case chained.MeanLatency() < edge.MeanLatency() && chained.MeanLatency() < cloud.MeanLatency():
		fmt.Println("\n=> the hierarchy beats both pure shapes: near capacity for the common case,")
		fmt.Println("   pooled far capacity only for the overflow.")
	case chained.MeanLatency() < edge.MeanLatency():
		fmt.Println("\n=> the hierarchy rescues the skew-inverted edge, approaching the pooled cloud.")
	default:
		fmt.Println("\n=> at this load the flat edge still wins; raise the skew to see the chain pay off.")
	}
}
