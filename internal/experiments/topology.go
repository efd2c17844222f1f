package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
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
	// Rates are requests per entry-tier server per second, ascending
	// for Crossover.
	Rates    []float64
	Duration float64 // simulated seconds per point
	// Warmup is the discarded prefix per point, and must lie below
	// Duration. With a Source the trace's own span bounds the run, so
	// checking the warmup against it is the caller's job.
	Warmup     float64
	Seed       int64
	Model      app.InferenceModel // zero value: app.NewInferenceModel()
	ArrivalSCV float64            // 0: cluster.DefaultArrivalSCV
	Summary    stats.Mode
	// Workers bounds the worker pool that evaluates sweep points
	// concurrently. 0 uses DefaultWorkers; 1 forces serial execution.
	// Every point derives its seeds from its index alone and results are
	// merged by index, so the output is identical at any pool size.
	Workers int
	// Source, when set, supplies each point's workload instead of the
	// generator — a recorded trace rescaled to the point's rate, say. It
	// is called with the point's fully derived GenSpec, once per point
	// when the shapes share one broadcast pass and once per shape
	// otherwise. Incompatible with Shards (an arbitrary factory cannot
	// be split into per-site ranges).
	Source func(cluster.GenSpec) cluster.Source
	// Shards selects each shape's replay engine. 0 replays every point
	// with cluster.Run (the single-engine path). AutoShards replays
	// shardable shapes through the sharded backend (cluster.RunPipelined:
	// parallel home-tier shards streaming into the shared phase),
	// splitting each point across the CPUs the worker pool leaves idle,
	// and silently falls back to Run for unshardable ones. N > 0 forces
	// exactly N shards per point and fails the sweep when a shape is not
	// shardable. Both engines share one stream layout, so every setting
	// gives the same points up to the last bits of a mean.
	Shards int
}

// AutoShards asks RunTopologySweep to pick a per-point shard count
// from the machine's CPU count and the sweep's own parallelism.
const AutoShards = -1

// Seed derivation. Point i generates its workload with seed
// Seed + i*workloadSeedStride and replays it through shape k (0 is the
// swept topology, k > 0 is Rivals[k-1]) with seed
// Seed + i*shapeSeedStrides[k]. The strides are distinct primes, so no
// two shapes or points share an engine seed.
const workloadSeedStride = 7919

var shapeSeedStrides = [...]int64{104729, 1299709, 15485863, 32452843}

// TierPoint is one tier's share of a topology sweep point.
type TierPoint struct {
	Name        string
	Served      uint64
	Spilled     uint64
	Dropped     uint64
	Rejected    uint64  // admission refusals at this tier (warmup included)
	Mean        float64 // seconds, requests served at this tier
	P95         float64
	Utilization float64
	// Scaler/cost overlay: peak provisioned servers (0 for static
	// tiers) and the tier's cost per served request.
	PeakServers int
	CostPerReq  float64
}

// TopologyPoint is one measured rate of a topology sweep.
type TopologyPoint struct {
	RatePerServer float64
	Offered       uint64 // records replayed, warmup included
	Mean          float64
	Median        float64
	P95           float64
	N             int
	Dropped       uint64
	Rejected      uint64
	Tiers         []TierPoint
}

// metric returns the point's latency statistic m.
func (p TopologyPoint) metric(m Metric) float64 {
	if m == P95 {
		return p.P95
	}
	return p.Mean
}

// TopologySweepResult is a completed topology sweep.
type TopologySweepResult struct {
	Config TopologySweepConfig
	Points []TopologyPoint
	// Rivals[k] holds Config.Rivals[k]'s points, parallel to Points:
	// each index replays the same trace as Points[i].
	Rivals [][]TopologyPoint
}

// Crossover locates where the swept topology first loses to rival k on
// metric m: the rate at which its latency first exceeds the rival's,
// interpolated between sampled rates (see FirstCrossing).
func (r TopologySweepResult) Crossover(m Metric, rival int) (rate float64, atFloor, found bool) {
	rates := make([]float64, len(r.Points))
	gaps := make([]float64, len(r.Points))
	for i, p := range r.Points {
		rates[i], gaps[i] = p.RatePerServer, p.metric(m)-r.Rivals[rival][i].metric(m)
	}
	return FirstCrossing(rates, gaps)
}

// RunTopologySweep sweeps request rates through the topology and its
// rivals, one streamed workload per rate, points evaluated concurrently
// with index-derived seeds (byte-identical at any pool size). Every
// shape and every generated point's GenSpec are validated before any
// worker starts, and so is a generated sweep's warmup against its
// duration. An unsharded point with rivals replays every shape
// from one broadcast pass.
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
	if cfg.Shards != 0 && cfg.Source != nil {
		return TopologySweepResult{}, fmt.Errorf("experiments: Shards and Source are incompatible (a source factory cannot be split into site ranges)")
	}
	shards := make([]int, len(shapes))
	broadcast := len(shapes) > 1
	for k, topo := range shapes {
		var err error
		if shards[k], err = cluster.ResolveShards(cfg.Shards, topo, poolSize(cfg.Workers, len(cfg.Rates))); err != nil {
			return TopologySweepResult{}, rivalErr(k, topo, err)
		}
		broadcast = broadcast && shards[k] == 0
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
	res := TopologySweepResult{Config: cfg, Points: make([]TopologyPoint, len(cfg.Rates))}
	for range cfg.Rivals {
		res.Rivals = append(res.Rivals, make([]TopologyPoint, len(cfg.Rates)))
	}
	err := forEachErr(len(cfg.Rates), cfg.Workers, func(i int) error {
		// Every run of a point replays the identical record sequence —
		// one broadcast pass, fresh sources over the same spec, or
		// per-site generator ranges (sharded runs) — so the pairing
		// holds however each run is engineered.
		spec := specs[i]
		opts := func(k int) cluster.Options {
			return cluster.Options{Warmup: cfg.Warmup, Seed: cfg.Seed + int64(i)*shapeSeedStrides[k], Summary: cfg.Summary}
		}
		var runs []*cluster.TopologyResult
		if broadcast {
			variants := make([]cluster.Variant, len(shapes))
			for k, topo := range shapes {
				variants[k] = cluster.Variant{Label: topo.Name, Topology: topo, Opts: opts(k)}
			}
			var err error
			if runs, err = cluster.RunBroadcast(src(spec), variants, 0); err != nil {
				return err
			}
		} else {
			runs = make([]*cluster.TopologyResult, len(shapes))
			for k, topo := range shapes {
				var err error
				if shards[k] != 0 {
					runs[k], err = cluster.RunPipelined(cluster.GenShards(spec), topo, opts(k), shards[k])
				} else {
					runs[k], err = cluster.Run(src(spec), topo, opts(k))
				}
				if err != nil {
					return rivalErr(k, topo, err)
				}
			}
		}
		res.Points[i] = topologyPoint(cfg.Rates[i], runs[0])
		for k := range res.Rivals {
			res.Rivals[k][i] = topologyPoint(cfg.Rates[i], runs[k+1])
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

// topologyPoint flattens one run into a sweep point.
func topologyPoint(rate float64, run *cluster.TopologyResult) TopologyPoint {
	p := TopologyPoint{
		RatePerServer: rate,
		Offered:       run.Offered,
		Mean:          run.EndToEnd.Mean(),
		Median:        run.EndToEnd.Median(),
		P95:           run.EndToEnd.P95(),
		N:             run.EndToEnd.N(),
		Dropped:       run.Dropped,
		Rejected:      run.Rejected,
	}
	for _, tier := range run.Tiers {
		p.Tiers = append(p.Tiers, TierPoint{
			Name:        tier.Name,
			Served:      tier.Served,
			Spilled:     tier.Spilled,
			Dropped:     tier.Dropped,
			Rejected:    tier.Rejected,
			Mean:        tier.EndToEnd.Mean(),
			P95:         tier.EndToEnd.P95(),
			Utilization: tier.Utilization,
			PeakServers: tier.PeakServers,
			CostPerReq:  tier.CostPerReq,
		})
	}
	return p
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
