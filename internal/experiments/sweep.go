// Package experiments contains one runner per table/figure in the
// paper's evaluation (§4): request-rate sweeps comparing edge and cloud
// mean/p95 latency (Figures 3–5), latency distributions (Figure 6),
// cutoff-utilization-vs-cloud-RTT sweeps (Figure 7), Azure-trace
// generation and replay (Figures 8–10), the taxi-load skew demonstration
// (Figure 2), the §4.2 analytic-validation comparison, and the §5.2
// capacity table. Each runner returns plain data structures that
// cmd/figures renders and bench_test.go regenerates.
package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/queue"
)

// SweepConfig describes a request-rate sweep in the style of §4.2: k edge
// sites of m servers each, against a cloud of k·m servers, at per-server
// request rates Rates (the paper's x-axis, "normalized request rate,
// reqs/server/second").
type SweepConfig struct {
	Scenario       netem.Scenario
	Sites          int
	ServersPerSite int
	Rates          []float64 // requests per server per second
	Duration       float64   // simulated seconds per point
	Warmup         float64   // discarded prefix per point
	Seed           int64
	Model          app.InferenceModel
	ArrivalSCV     float64
	// CloudPolicy is the cloud tier's dispatch: cluster.CentralQueueDispatch
	// (or empty) for one pooled queue, or an lb policy name (see
	// cluster.CloudTier).
	CloudPolicy string
	Discipline  queue.Discipline
	// Workers bounds the worker pool that evaluates sweep points (and,
	// in RunReplicatedSweep, replications) concurrently. 0 uses
	// DefaultWorkers; 1 forces serial execution. Every point derives its
	// seeds from its index alone and results are merged by index, so the
	// output is identical at any pool size.
	Workers int
}

// DefaultSweepConfig returns the Figure 3 setup: 5 edge sites, 1 server
// each, typical 25 ms cloud, rates 6–12 req/s/server.
func DefaultSweepConfig() SweepConfig {
	// The preset name is compile-time known, so the lookup cannot miss.
	sc, _ := netem.ScenarioByName("typical-25ms")
	return SweepConfig{
		Scenario:       sc,
		Sites:          5,
		ServersPerSite: 1,
		Rates:          []float64{6, 7, 8, 9, 10, 11, 12},
		Duration:       600,
		Warmup:         60,
		Seed:           42,
		Model:          app.NewInferenceModel(),
		ArrivalSCV:     cluster.DefaultArrivalSCV,
		CloudPolicy:    cluster.CentralQueueDispatch,
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

// SweepPoint is one measured point of a rate sweep.
type SweepPoint struct {
	RatePerServer float64
	Utilization   float64 // offered per-server utilization λ/μ
	MeasuredUtil  float64 // edge utilization actually measured
	EdgeMean      float64 // seconds
	CloudMean     float64
	EdgeP95       float64
	CloudP95      float64
	EdgeMedian    float64
	CloudMedian   float64
	EdgeN         int
	CloudN        int
}

// SweepResult is the outcome of a full rate sweep.
type SweepResult struct {
	Config SweepConfig
	Points []SweepPoint
}

// RunSweep executes the sweep: for every rate it streams one workload
// through both deployments (paired comparison, as in the paper where
// the cloud "sees the cumulative request rate").
// Points are evaluated concurrently on a bounded worker pool — each
// point seeds its own engines from its index, and results land in
// index-addressed slots, so the output is byte-identical to a serial
// run. A config the engine rejects (e.g. an unknown CloudPolicy)
// returns the error of the lowest failing point.
func RunSweep(cfg SweepConfig) (SweepResult, error) {
	if cfg.Model.D == nil {
		cfg.Model = app.NewInferenceModel()
	}
	res := SweepResult{Config: cfg, Points: make([]SweepPoint, len(cfg.Rates))}
	err := forEachErr(len(cfg.Rates), cfg.Workers, func(i int) (err error) {
		res.Points[i], err = runSweepPoint(cfg, i)
		return err
	})
	if err != nil {
		return SweepResult{}, err
	}
	return res, nil
}

// runSweepPoint evaluates one rate of a sweep. All randomness derives
// from cfg.Seed and the point index, never from shared state.
func runSweepPoint(cfg SweepConfig, i int) (SweepPoint, error) {
	rate := cfg.Rates[i]
	spec := cluster.GenSpec{
		Sites:       cfg.Sites,
		Duration:    cfg.Duration,
		PerSiteRate: rate * float64(cfg.ServersPerSite),
		ArrivalSCV:  cfg.ArrivalSCV,
		Model:       cfg.Model,
		Seed:        cfg.Seed + int64(i)*7919,
	}
	cloudTier := cluster.CloudTier(cfg.Sites*cfg.ServersPerSite, cfg.Scenario.Cloud, cfg.CloudPolicy)
	cloudTier.Discipline = cfg.Discipline
	runs, err := runVariants(spec,
		cluster.Variant{Topology: cluster.Topology{Name: "edge", Tiers: []cluster.Tier{{
			Name: "edge", Sites: cfg.Sites, ServersPerSite: cfg.ServersPerSite,
			Path: cfg.Scenario.Edge, Discipline: cfg.Discipline,
		}}}, Opts: cluster.Options{Warmup: cfg.Warmup, Seed: cfg.Seed + int64(i)*104729}},
		cluster.Variant{Topology: cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{cloudTier}},
			Opts: cluster.Options{Warmup: cfg.Warmup, Seed: cfg.Seed + int64(i)*1299709}})
	if err != nil {
		return SweepPoint{}, err
	}
	edge, cloud := runs[0], runs[1]
	return SweepPoint{
		RatePerServer: rate,
		Utilization:   rate / cfg.Model.Mu(),
		MeasuredUtil:  edge.Utilization,
		EdgeMean:      edge.MeanLatency(),
		CloudMean:     cloud.MeanLatency(),
		EdgeP95:       edge.P95Latency(),
		CloudP95:      cloud.P95Latency(),
		EdgeMedian:    edge.EndToEnd.Median(),
		CloudMedian:   cloud.EndToEnd.Median(),
		EdgeN:         edge.EndToEnd.N(),
		CloudN:        cloud.EndToEnd.N(),
	}, nil
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

// Metrics supported by FindCrossover.
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

func (p SweepPoint) metric(m Metric) (edge, cloud float64) {
	if m == P95 {
		return p.EdgeP95, p.CloudP95
	}
	return p.EdgeMean, p.CloudMean
}

// Crossover locates the performance-inversion point of a sweep: the
// lowest rate at which the edge metric exceeds the cloud metric, with
// linear interpolation between sampled rates (see FirstCrossing). found
// is false if the edge never inverts within the sweep.
func (r SweepResult) Crossover(m Metric) (rate, utilization float64, found bool) {
	rates := make([]float64, len(r.Points))
	gaps := make([]float64, len(r.Points))
	for i, p := range r.Points {
		e, c := p.metric(m)
		rates[i], gaps[i] = p.RatePerServer, e-c
	}
	if rate, _, found = FirstCrossing(rates, gaps); !found {
		return 0, 0, false
	}
	return rate, rate / r.Config.Model.Mu(), true
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
