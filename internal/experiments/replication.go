package experiments

import (
	"fmt"

	"repro/internal/stats"
)

// ReplicatedPoint aggregates one sweep point across independent
// replications: mean of means with a 95% confidence half-width, so the
// crossover claims carry statistical weight. The Edge fields describe
// the swept topology and the Cloud fields its first rival.
type ReplicatedPoint struct {
	RatePerServer float64
	EdgeMean      float64
	EdgeMeanCI    float64
	CloudMean     float64
	CloudMeanCI   float64
	EdgeP95       float64
	EdgeP95CI     float64
	CloudP95      float64
	CloudP95CI    float64
	Replications  int
}

// Separated reports whether the edge and cloud mean confidence intervals
// do not overlap at this point (the comparison is statistically
// resolved).
func (p ReplicatedPoint) Separated() bool {
	lo1, hi1 := p.EdgeMean-p.EdgeMeanCI, p.EdgeMean+p.EdgeMeanCI
	lo2, hi2 := p.CloudMean-p.CloudMeanCI, p.CloudMean+p.CloudMeanCI
	return hi1 < lo2 || hi2 < lo1
}

// RunReplicatedSweep runs the sweep n times with distinct seeds and
// aggregates per-point statistics of the topology and its first rival
// across replications, merged in replication order, so the aggregate is
// identical at any pool size.
func RunReplicatedSweep(cfg TopologySweepConfig, n int) ([]ReplicatedPoint, error) {
	reps, err := runReplications(cfg, n)
	if err != nil {
		return nil, err
	}
	type acc struct {
		edgeMean, cloudMean stats.Stream
		edgeP95, cloudP95   stats.Stream
	}
	accs := make([]acc, len(cfg.Rates))
	for _, res := range reps {
		for i, p := range res.Points {
			rival := res.Rivals[0][i]
			accs[i].edgeMean.Add(p.EndToEnd.Mean())
			accs[i].cloudMean.Add(rival.EndToEnd.Mean())
			accs[i].edgeP95.Add(p.EndToEnd.P95())
			accs[i].cloudP95.Add(rival.EndToEnd.P95())
		}
	}
	out := make([]ReplicatedPoint, len(cfg.Rates))
	for i, a := range accs {
		out[i] = ReplicatedPoint{
			RatePerServer: cfg.Rates[i],
			EdgeMean:      a.edgeMean.Mean(),
			EdgeMeanCI:    a.edgeMean.ConfidenceInterval95(),
			CloudMean:     a.cloudMean.Mean(),
			CloudMeanCI:   a.cloudMean.ConfidenceInterval95(),
			EdgeP95:       a.edgeP95.Mean(),
			EdgeP95CI:     a.edgeP95.ConfidenceInterval95(),
			CloudP95:      a.cloudP95.Mean(),
			CloudP95CI:    a.cloudP95.ConfidenceInterval95(),
			Replications:  n,
		}
	}
	return out, nil
}

// runReplications runs n independent replications of the sweep, each
// a RunTopologySweep whose seed is offset by the replication index,
// returned in replication order.
func runReplications(cfg TopologySweepConfig, n int) ([]TopologySweepResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: replications n=%d must be positive", n)
	}
	if len(cfg.Rivals) == 0 {
		return nil, fmt.Errorf("experiments: a replicated sweep needs a rival to compare against")
	}
	out := make([]TopologySweepResult, n)
	for rep := range out {
		c := cfg
		c.Seed = cfg.Seed + int64(rep)*999983
		var err error
		if out[rep], err = RunTopologySweep(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CrossoverCI runs the sweep n times and returns the mean rate at which
// the topology first loses to its first rival, with its 95% confidence
// half-width. found is false if fewer than half the replications
// observed a crossover.
func CrossoverCI(cfg TopologySweepConfig, metric Metric, n int) (rate, ci float64, found bool, err error) {
	reps, err := runReplications(cfg, n)
	if err != nil {
		return 0, 0, false, err
	}
	var s stats.Stream
	for _, res := range reps {
		if r, _, ok := res.Crossover(metric, 0); ok {
			s.Add(r)
		}
	}
	if s.N() < int64((n+1)/2) {
		return 0, 0, false, nil
	}
	return s.Mean(), s.ConfidenceInterval95(), true, nil
}
