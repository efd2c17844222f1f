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
	"math"

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

// RunSweep executes the sweep: for every rate it generates one workload
// trace and replays it through both deployments (paired comparison, as
// in the paper where the cloud "sees the cumulative request rate").
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
	tr := cluster.Generate(cluster.GenSpec{
		Sites:       cfg.Sites,
		Duration:    cfg.Duration,
		PerSiteRate: rate * float64(cfg.ServersPerSite),
		ArrivalSCV:  cfg.ArrivalSCV,
		Model:       cfg.Model,
		Seed:        cfg.Seed + int64(i)*7919,
	})
	cloudTier := cluster.CloudTier(cfg.Sites*cfg.ServersPerSite, cfg.Scenario.Cloud, cfg.CloudPolicy)
	cloudTier.Discipline = cfg.Discipline
	runs, err := runVariants(tr,
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

// runVariants replays tr through every variant in one broadcast pass
// and returns the results in variant order.
func runVariants(tr *cluster.WorkloadTrace, variants ...cluster.Variant) ([]*cluster.TopologyResult, error) {
	runs, err := cluster.RunBroadcast(tr.Source(), variants, 0)
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
// linear interpolation between sampled rates. found is false if the edge
// never inverts within the sweep.
func (r SweepResult) Crossover(m Metric) (rate, utilization float64, found bool) {
	mu := r.Config.Model.Mu()
	prevDiff := math.Inf(-1)
	prevRate := 0.0
	for i, p := range r.Points {
		e, c := p.metric(m)
		diff := e - c
		if diff > 0 {
			if i == 0 || math.IsInf(prevDiff, -1) {
				return p.RatePerServer, p.RatePerServer / mu, true
			}
			// Interpolate the zero crossing between the previous and
			// current rate.
			frac := -prevDiff / (diff - prevDiff)
			rate = prevRate + frac*(p.RatePerServer-prevRate)
			return rate, rate / mu, true
		}
		prevDiff, prevRate = diff, p.RatePerServer
	}
	return 0, 0, false
}
