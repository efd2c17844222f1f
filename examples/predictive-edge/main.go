// Predictive edge autoscaling: the paper's §3.2 takeaway says edge
// capacity should track the workload's spatial and temporal drift, and
// §7 asks what that elasticity costs. This walkthrough puts both
// questions to the simulator: a diurnal (NHPP) workload sweeps over
// phase-shifted edge sites, and every scaler policy — the reactive
// threshold controller and one predictive controller per forecaster —
// drives the identical deployment on the identical trace. The output
// is the latency-vs-cost frontier: which policy provisions ahead of
// the ramp, which one chases it, and what each choice spends per
// thousand requests.
package main

import (
	"fmt"
	"sort"

	edgebench "repro"
)

func main() {
	// One shared scenario: 5 edge sites, 10 minutes, mean 8 req/s per
	// site swinging 0.25x..1.75x around the mean as the "day" passes.
	// Each site's peak arrives at a different time, so a fixed
	// provisioning level is wrong almost everywhere almost always.
	cfg := edgebench.ScalerComparisonConfig{
		Workload: "nhpp",
		Sites:    5,
		Duration: 600,
		Seed:     7,
		BaseRate: 8,
		// Each site may grow from 1 to 6 servers; overload beyond the
		// scaler's reach spills to a static cloud backstop.
		MinServers: 1,
		MaxServers: 6,
	}
	// nil Specs = the full registry: reactive + predictive × every
	// forecaster (naive, sma, ewma, holt, window-max).
	res, err := edgebench.RunScalerComparison(cfg)
	if err != nil {
		panic(err)
	}

	fmt.Println("diurnal workload, 5 edge sites, scaler policy comparison")
	fmt.Println("(same trace, same seed — every difference is the policy)")
	fmt.Println()
	fmt.Printf("%-26s %10s %10s %6s %9s %8s %9s\n",
		"policy", "mean (ms)", "p95 (ms)", "peak", "actions", "srv-sec", "$/kreq")
	// One run per policy, labelled with the policy's name.
	sorted := res.Runs
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].CostPerRequest < sorted[j].CostPerRequest })
	for _, run := range sorted {
		edge := run.Tiers[0]
		fmt.Printf("%-26s %10.1f %10.1f %6d %9d %8.0f %9.4f\n",
			run.Label, run.MeanLatency()*1000, run.P95Latency()*1000,
			edge.PeakServers, edge.ScaleUps+edge.ScaleDowns,
			edge.ServerSeconds, run.CostPerRequest*1000)
	}

	// The frontier verdict: reactive thresholds only react after queues
	// build, so on a smooth ramp a forecaster that looks one interval
	// ahead (holt tracks the trend, window-max provisions for the
	// recent peak) buys lower latency for nearly the same spend.
	best := sorted[0]
	for _, run := range sorted {
		if run.MeanLatency() < best.MeanLatency() {
			best = run
		}
	}
	fmt.Printf("\nlowest mean latency: %s (%.1f ms at %.4f $/kreq)\n",
		best.Label, best.MeanLatency()*1000, best.CostPerRequest*1000)
	for _, run := range sorted {
		if run.Label == "reactive" {
			fmt.Printf("reactive baseline:   %.1f ms at %.4f $/kreq\n",
				run.MeanLatency()*1000, run.CostPerRequest*1000)
			if best.MeanLatency() < run.MeanLatency() {
				fmt.Println("\n=> prediction pays: provisioning for the forecast beats chasing the queue.")
			} else {
				fmt.Println("\n=> on this trace the threshold controller holds its own; burstier")
				fmt.Println("   workloads (try Workload: \"mmpp\") widen the gap.")
			}
		}
	}
}
