package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
)

// TopologySweepConfig describes a request-rate sweep: one streamed
// workload per rate, replayed through the swept topology and through
// every rival shape. It is the one sweep the package runs — the paper's
// edge/cloud pair (PaperPairSweep), the replicated sweeps, the
// three-tier figure and edgesim -sweep are all configs of it.
type TopologySweepConfig struct {
	// Topology is the swept deployment. Its entry tier fixes the
	// generated workload: one site per entry site, at Rates[i] times the
	// entry tier's servers per site.
	Topology cluster.Topology
	// Rivals are paired shapes (e.g. an equal-capacity pooled cloud)
	// that replay each rate's identical trace, so crossovers against
	// them are free of unpaired sampling noise. At most three.
	Rivals []cluster.Topology
	// Rates are requests per entry-tier server per second, in ascending
	// order (Crossover scans them low to high).
	Rates    []float64
	Duration float64 // simulated seconds per point
	// Warmup is the discarded prefix per point, and must lie below
	// Duration. With a Source the trace's own span bounds the run, so
	// checking the warmup against it is the caller's job.
	Warmup     float64
	Seed       int64
	Model      app.InferenceModel // zero value: app.NewInferenceModel()
	ArrivalSCV float64            // 0: cluster.DefaultArrivalSCV
	// Source, when set, supplies each point's workload instead of the
	// generator — a recorded trace rescaled to the point's rate, say. It
	// is called once per point with the point's fully derived GenSpec.
	Source func(cluster.GenSpec) cluster.Source
}

// Seed derivation. Point i generates its workload with seed
// Seed + i*workloadSeedStride and replays it through shape k (0 is the
// swept topology, k > 0 is Rivals[k-1]) with engine seed
// Seed + i*shapeSeedStrides[k]. Within a run the workload's and the
// engine's streams are independent: the generator and the engine derive
// theirs from their seeds in different layouts. The strides are distinct
// primes, so past point 0 the shapes of a point replay with distinct
// engine seeds. At point 0 every offset is zero: each shape's engine
// seed is Seed, as is the workload seed, so point 0's shapes share
// common random numbers (the same network streams per site).
const workloadSeedStride = 7919

var shapeSeedStrides = [...]int64{104729, 1299709, 15485863, 32452843}

// TopologySweepResult is a completed topology sweep. Points[i] is the
// swept topology's run at Config.Rates[i].
type TopologySweepResult struct {
	Config TopologySweepConfig
	Points []*cluster.TopologyResult
	// Rivals[k] holds Config.Rivals[k]'s runs, parallel to Points:
	// each index replays the same trace as Points[i].
	Rivals [][]*cluster.TopologyResult
}

// Crossover locates where the swept topology first loses to rival k on
// metric m: the rate at which its latency first exceeds the rival's,
// interpolated between sampled rates (see FirstCrossing).
func (r TopologySweepResult) Crossover(m Metric, rival int) (rate float64, atFloor, found bool) {
	gaps := make([]float64, len(r.Points))
	for i, p := range r.Points {
		q := r.Rivals[rival][i]
		if m == P95 {
			gaps[i] = p.EndToEnd.P95() - q.EndToEnd.P95()
		} else {
			gaps[i] = p.EndToEnd.Mean() - q.EndToEnd.Mean()
		}
	}
	return FirstCrossing(r.Config.Rates, gaps)
}

// RunTopologySweep sweeps request rates through the topology and its
// rivals, one streamed workload per rate, points evaluated concurrently
// with index-derived seeds (byte-identical at any pool size). Every
// shape and every generated point's GenSpec are validated before any
// worker starts, and so are the rates' order and a generated sweep's
// warmup against its duration. Each point replays every shape from one
// cluster.RunBroadcast pass over its workload.
func RunTopologySweep(cfg TopologySweepConfig) (TopologySweepResult, error) {
	if len(cfg.Topology.Tiers) == 0 {
		return TopologySweepResult{}, fmt.Errorf("experiments: topology sweep needs a topology")
	}
	if len(cfg.Rivals) >= len(shapeSeedStrides) {
		return TopologySweepResult{}, fmt.Errorf("experiments: topology sweep takes at most %d rivals, got %d",
			len(shapeSeedStrides)-1, len(cfg.Rivals))
	}
	shapes := append([]cluster.Topology{cfg.Topology}, cfg.Rivals...)
	for k, topo := range shapes {
		if err := topo.Validate(); err != nil {
			return TopologySweepResult{}, rivalErr(k, topo, err)
		}
	}
	if len(cfg.Rates) == 0 {
		return TopologySweepResult{}, fmt.Errorf("experiments: topology sweep needs rates")
	}
	for i := 1; i < len(cfg.Rates); i++ {
		if cfg.Rates[i] < cfg.Rates[i-1] {
			return TopologySweepResult{}, fmt.Errorf("experiments: topology sweep rates must be ascending: %v then %v",
				cfg.Rates[i-1], cfg.Rates[i])
		}
	}
	if cfg.Model.D == nil {
		cfg.Model = app.NewInferenceModel()
	}
	ingress := cfg.Topology.Tiers[0]
	perSite := ingress.ServersPerSite
	if perSite <= 0 {
		perSite = 1
	}
	specs := make([]cluster.GenSpec, len(cfg.Rates))
	for i, rate := range cfg.Rates {
		specs[i] = cluster.GenSpec{
			Sites:       ingress.Sites,
			Duration:    cfg.Duration,
			PerSiteRate: rate * float64(perSite),
			ArrivalSCV:  cfg.ArrivalSCV,
			Model:       cfg.Model,
			Seed:        cfg.Seed + int64(i)*workloadSeedStride,
		}
		if cfg.Source == nil {
			if err := specs[i].Validate(); err != nil {
				return TopologySweepResult{}, fmt.Errorf("experiments: rate %v: %w", rate, err)
			}
		}
	}
	src := cfg.Source
	if src == nil {
		if !(cfg.Warmup < cfg.Duration) {
			return TopologySweepResult{}, fmt.Errorf("experiments: warmup %v is not below duration %v: every point would measure nothing",
				cfg.Warmup, cfg.Duration)
		}
		src = cluster.Stream
	}
	res := TopologySweepResult{Config: cfg, Points: make([]*cluster.TopologyResult, len(cfg.Rates))}
	for range cfg.Rivals {
		res.Rivals = append(res.Rivals, make([]*cluster.TopologyResult, len(cfg.Rates)))
	}
	err := forEachErr(len(cfg.Rates), func(i int) error {
		// One pass over the point's workload feeds every shape the
		// identical record sequence, so the pairing is exact.
		variants := make([]cluster.Variant, len(shapes))
		for k, topo := range shapes {
			variants[k] = cluster.Variant{Label: topo.Name, Topology: topo, Opts: cluster.Options{
				Warmup: cfg.Warmup, Seed: cfg.Seed + int64(i)*shapeSeedStrides[k]}}
		}
		runs, err := cluster.RunBroadcast(src(specs[i]), variants, 0)
		if err != nil {
			return err
		}
		res.Points[i] = runs[0]
		for k := range res.Rivals {
			res.Rivals[k][i] = runs[k+1]
		}
		return nil
	})
	if err != nil {
		return TopologySweepResult{}, err
	}
	return res, nil
}

// rivalErr names the rival shape an error came from; errors of the
// swept topology (shape 0) pass through unchanged.
func rivalErr(shape int, topo cluster.Topology, err error) error {
	if shape == 0 {
		return err
	}
	return fmt.Errorf("experiments: rival %q: %w", topo.Name, err)
}

// threeTierChain is the capacity-matched chain used by the figure:
// 5 edge servers, a 2-server regional cluster at 13 ms, and a
// 3-server cloud at 25 ms — 10 servers total, the same as the other
// three shapes.
func threeTierChain() cluster.Topology {
	regional := netem.Jittered("regional-13ms", 0.013, 0.002)
	cloud := netem.CloudTypical
	return cluster.Topology{
		Name: "edge-regional-cloud",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "regional", Sites: 1, ServersPerSite: 2, Path: regional,
				Dispatch: cluster.CentralQueueDispatch},
			{Name: "cloud", Sites: 1, ServersPerSite: 3, Path: cloud,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{
			{From: "edge", To: "regional", Threshold: 3, DetourPath: &regional},
			{From: "regional", To: "cloud", Threshold: 4, DetourPath: &cloud},
		},
	}
}

// RunFigThreeTier evaluates the hierarchy figure: four capacity-matched
// deployment shapes across the paper's rate axis. The swept topology is
// the pure edge (5 sites × 2 servers); its rivals are, in order, the
// pure cloud (10 pooled servers), the two-tier edge+overflow hierarchy
// (5 edge servers spilling to 5 cloud servers at threshold 3) and the
// edge→regional→cloud chain. Every shape deploys 10 servers and replays
// the same per-rate trace (5 sites, 2× the per-server rate each), so
// differences are purely deployment shape — pooled far capacity,
// partitioned near capacity, or hierarchies in between.
func RunFigThreeTier(duration float64, seed int64) (TopologySweepResult, error) {
	cloudPath := netem.CloudTypical
	return RunTopologySweep(TopologySweepConfig{
		Topology: cluster.Topology{
			Name:  "edge",
			Tiers: []cluster.Tier{{Name: "edge", Sites: 5, ServersPerSite: 2, Path: netem.EdgePath}},
		},
		Rivals: []cluster.Topology{
			{Name: "cloud", Tiers: []cluster.Tier{cluster.CloudTier(10, cloudPath, "")}},
			{
				Name: "edge+overflow",
				Tiers: []cluster.Tier{
					{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.EdgePath},
					cluster.CloudTier(5, cloudPath, ""),
				},
				Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloudPath}},
			},
			threeTierChain(),
		},
		Rates:    []float64{6, 7, 8, 9, 10, 11, 12},
		Duration: duration,
		Warmup:   duration / 10,
		Seed:     seed,
	})
}
