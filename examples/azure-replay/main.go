// Azure replay: reproduce the paper's §4.5 trace-driven experiment with
// the synthetic Azure-like serverless workload — five edge sites with
// skewed, bursty request streams versus one cloud aggregating all of
// them — and show how workload skew causes intermittent inversion even
// when average utilization looks safe.
package main

import (
	"fmt"

	edgebench "repro"
)

func main() {
	spec := edgebench.DefaultAzureSpec()
	res, err := edgebench.RunAzureReplay(spec, 7)
	if err != nil {
		panic(err)
	}

	fmt.Println("Per-site workload (requests/minute), synthetic Azure trace:")
	for i, s := range res.Series {
		min, max := s.Counts[0], s.Counts[0]
		for _, c := range s.Counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		fmt.Printf("  Edge %d: total %6.0f  min %4.0f  max %4.0f req/min\n", i+1, s.Total(), min, max)
	}

	fmt.Println("\nMinute-by-minute mean latency (ms):")
	fmt.Printf("%-8s %12s %12s %s\n", "minute", "edge", "cloud", "leader")
	inversions := 0
	edge, cloud := res.EdgeResult, res.CloudResult
	n := min(edge.Timeline.NumBins(), cloud.Timeline.NumBins())
	for i := 0; i < n; i++ {
		e := edge.Timeline.BinMean(i) * 1000
		c := cloud.Timeline.BinMean(i) * 1000
		leader := "edge"
		if e > c {
			leader = "CLOUD (inversion)"
			inversions++
		}
		fmt.Printf("%-8d %12.1f %12.1f %s\n", i+1, e, c, leader)
	}
	fmt.Printf("\n%d of %d minutes showed performance inversion.\n", inversions, n)

	fmt.Println("\nPer-site latency spread (the paper's Figure 10):")
	for i, site := range edge.Tiers[0].Sites {
		b := site.EndToEnd.Box(fmt.Sprintf("Edge %d", i+1))
		fmt.Printf("  %-8s median %6.1f ms   q3 %6.1f ms   whisker %7.1f ms\n",
			b.Label, b.Median*1000, b.Q3*1000, b.UpperFence*1000)
	}
	b := cloud.EndToEnd.Box("Cloud")
	fmt.Printf("  %-8s median %6.1f ms   q3 %6.1f ms   whisker %7.1f ms\n",
		b.Label, b.Median*1000, b.Q3*1000, b.UpperFence*1000)

	fmt.Printf("\noverall: edge mean %.1f ms vs cloud mean %.1f ms; edge p95 %.1f ms vs cloud p95 %.1f ms\n",
		edge.MeanLatency()*1000, cloud.MeanLatency()*1000,
		edge.P95Latency()*1000, cloud.P95Latency()*1000)
}
