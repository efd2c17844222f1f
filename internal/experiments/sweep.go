// Package experiments contains one runner per table/figure in the
// paper's evaluation (§4): request-rate sweeps comparing edge and cloud
// mean/p95 latency (Figures 3–5), latency distributions (Figure 6),
// cutoff-utilization-vs-cloud-RTT sweeps (Figure 7), Azure-trace
// generation and replay (Figures 8–10), the taxi-load skew demonstration
// (Figure 2), the §4.2 analytic-validation comparison, and the §5.2
// capacity table. Every rate sweep — Figures 3–5 and 7, the replicated
// sweeps, the three-tier hierarchy figure — is a TopologySweepConfig run
// by RunTopologySweep; PaperPairSweep builds the paper's edge/cloud
// pair. Each runner returns the engine's run results
// (cluster.TopologyResult), or values derived from several of them
// (crossovers, replication averages); cmd/figures renders them and
// bench_test.go regenerates them.
package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
)

// PaperPairSweep returns the §4.2 sweep behind Figures 3–5 and 7: 5
// edge sites of serversPerSite servers each on the scenario's edge path,
// against one rival, a cloud of 5·serversPerSite servers pooled behind
// one central queue on the scenario's cloud path, at 6–12 requests per
// server per second (the paper's x-axis), 600 s per point after a 60 s
// warmup.
func PaperPairSweep(sc netem.Scenario, serversPerSite int) TopologySweepConfig {
	const sites = 5
	return TopologySweepConfig{
		Topology: cluster.Topology{Name: "edge", Tiers: []cluster.Tier{{
			Name: "edge", Sites: sites, ServersPerSite: serversPerSite, Path: sc.Edge,
		}}},
		Rivals: []cluster.Topology{{Name: "cloud", Tiers: []cluster.Tier{
			cluster.CloudTier(sites*serversPerSite, sc.Cloud, cluster.CentralQueueDispatch),
		}}},
		Rates:      []float64{6, 7, 8, 9, 10, 11, 12},
		Duration:   600,
		Warmup:     60,
		Seed:       42,
		Model:      app.NewInferenceModel(),
		ArrivalSCV: cluster.DefaultArrivalSCV,
	}
}

// scenarioByName resolves a paper scenario preset, listing the valid
// names on failure so callers can surface a usable error instead of a
// panic deep inside a run.
func scenarioByName(name string) (netem.Scenario, error) {
	s, ok := netem.ScenarioByName(name)
	if !ok {
		var names []string
		for _, sc := range netem.PaperScenarios() {
			names = append(names, sc.Name)
		}
		return netem.Scenario{}, fmt.Errorf("experiments: unknown scenario %q (want one of %v)", name, names)
	}
	return s, nil
}

// runVariants validates spec, streams it through every variant in one
// broadcast pass and returns the results in variant order.
func runVariants(spec cluster.GenSpec, variants ...cluster.Variant) ([]*cluster.TopologyResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	runs, err := cluster.RunBroadcast(cluster.Stream(spec), variants, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return runs, nil
}

// Metric selects which latency statistic a crossover search compares.
type Metric int

// Metrics supported by TopologySweepResult.Crossover.
const (
	Mean Metric = iota
	P95
)

// String names the metric.
func (m Metric) String() string {
	if m == P95 {
		return "p95"
	}
	return "mean"
}

// FirstCrossing is the one crossover search every sweep shares. gaps[i]
// is a deployment's latency metric minus its rival's at rates[i]
// (ascending); FirstCrossing returns the rate where the gap first turns
// positive, linearly interpolating between the bracketing rates. atFloor
// reports that the gap is already positive at the lowest rate (the true
// crossing lies below the swept range, and rate is rates[0]); found is
// false when the gap never turns positive.
func FirstCrossing(rates, gaps []float64) (rate float64, atFloor, found bool) {
	for i, d := range gaps {
		if !(d > 0) { // NaN gaps never count as a crossing
			continue
		}
		if i == 0 {
			return rates[0], true, true
		}
		// prev <= 0 < d, so the denominator is positive.
		prev := gaps[i-1]
		frac := -prev / (d - prev)
		return rates[i-1] + frac*(rates[i]-rates[i-1]), false, true
	}
	return 0, false, false
}
