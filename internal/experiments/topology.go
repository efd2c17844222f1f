package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
)

// TopologySweepConfig describes a request-rate sweep over an arbitrary
// deployment topology: the generalization of SweepConfig from the
// paper's two fixed shapes to any tier graph. Rates are per ingress
// server per second, scaled by the entry tier's servers-per-site.
type TopologySweepConfig struct {
	Topology   cluster.Topology
	Rates      []float64
	Duration   float64
	Warmup     float64
	Seed       int64
	Model      app.InferenceModel
	ArrivalSCV float64
	Summary    stats.Mode
	// Workers bounds the worker pool (see SweepConfig.Workers).
	Workers int
	// Baseline, when set, replays each rate's identical trace through
	// this second topology (e.g. an equal-capacity pooled cloud), so
	// crossover comparisons between the two are paired — free of
	// unpaired sampling noise near the inversion point.
	Baseline *cluster.Topology
	// Source, when set, supplies each point's workload instead of the
	// generator — a recorded trace rescaled to the point's rate, say. It
	// is called once per point with the point's fully derived GenSpec
	// (a Baseline replays the same pass through RunBroadcast).
	// Incompatible with Shards (an arbitrary factory cannot be split
	// into per-site ranges).
	Source func(cluster.GenSpec) cluster.Source
	// Shards selects the per-point replay engine. 0 replays every
	// point with cluster.Run (the single-engine path, back-compatible
	// bit-for-bit). AutoShards replays shardable topologies through
	// the sharded backend (cluster.RunPipelined: parallel home-tier
	// shards streaming into the shared phase), splitting each point
	// across the CPUs the
	// worker pool leaves idle, and silently falls back to Run for
	// unshardable ones. N > 0 forces exactly N shards per point and
	// fails the sweep when a topology is not shardable. Sharded
	// results are bit-identical at every shard count but follow the
	// sharded stream discipline, so they differ numerically from
	// Shards == 0 points — pick one engine per experiment.
	Shards int
}

// AutoShards asks RunTopologySweep to pick a per-point shard count
// from the machine's CPU count and the sweep's own parallelism.
const AutoShards = -1

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
	Mean          float64
	Median        float64
	P95           float64
	N             int
	Dropped       uint64
	Rejected      uint64
	Tiers         []TierPoint
}

// TopologySweepResult is a completed topology sweep.
type TopologySweepResult struct {
	Config TopologySweepConfig
	Points []TopologyPoint
	// Baseline points, parallel to Points; nil unless Config.Baseline
	// was set. Each index replays the same trace as Points[i].
	Baseline []TopologyPoint
}

// RunTopologySweep sweeps request rates through the topology, one
// streamed workload per rate, points evaluated concurrently with
// index-derived seeds (byte-identical at any pool size). The topology
// and every generated point's GenSpec are validated before any worker
// starts. An unsharded point with a baseline replays both shapes from
// one broadcast pass.
func RunTopologySweep(cfg TopologySweepConfig) (TopologySweepResult, error) {
	if len(cfg.Topology.Tiers) == 0 {
		return TopologySweepResult{}, fmt.Errorf("experiments: topology sweep needs a topology")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return TopologySweepResult{}, err
	}
	if len(cfg.Rates) == 0 {
		return TopologySweepResult{}, fmt.Errorf("experiments: topology sweep needs rates")
	}
	if cfg.Baseline != nil {
		if err := cfg.Baseline.Validate(); err != nil {
			return TopologySweepResult{}, fmt.Errorf("experiments: baseline: %w", err)
		}
	}
	if cfg.Shards != 0 && cfg.Source != nil {
		return TopologySweepResult{}, fmt.Errorf("experiments: Shards and Source are incompatible (a source factory cannot be split into site ranges)")
	}
	topoShards, err := resolveShards(cfg.Shards, cfg.Topology, cfg.Workers, len(cfg.Rates))
	if err != nil {
		return TopologySweepResult{}, err
	}
	baseShards := 0
	if cfg.Baseline != nil {
		baseShards, err = resolveShards(cfg.Shards, *cfg.Baseline, cfg.Workers, len(cfg.Rates))
		if err != nil {
			return TopologySweepResult{}, fmt.Errorf("experiments: baseline: %w", err)
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
			Seed:        cfg.Seed + int64(i)*7919,
		}
		if cfg.Source == nil {
			if err := specs[i].Validate(); err != nil {
				return TopologySweepResult{}, fmt.Errorf("experiments: rate %v: %w", rate, err)
			}
		}
	}
	src := cfg.Source
	if src == nil {
		src = cluster.Stream
	}
	res := TopologySweepResult{Config: cfg, Points: make([]TopologyPoint, len(cfg.Rates))}
	if cfg.Baseline != nil {
		res.Baseline = make([]TopologyPoint, len(cfg.Rates))
	}
	err = forEachErr(len(cfg.Rates), cfg.Workers, func(i int) error {
		// Every run of a point replays the identical record sequence —
		// fresh sources over the same spec, or per-site generator
		// ranges (sharded runs) — so the pairing holds however each
		// run is engineered.
		spec := specs[i]
		pointOpts := func(seed int64) cluster.Options {
			return cluster.Options{Warmup: cfg.Warmup, Seed: seed, Summary: cfg.Summary}
		}
		runPoint := func(topo cluster.Topology, shards int, seed int64) (*cluster.TopologyResult, error) {
			if shards != 0 {
				return cluster.RunPipelined(cluster.GenShards(spec), topo, pointOpts(seed), shards)
			}
			return cluster.Run(src(spec), topo, pointOpts(seed))
		}
		if cfg.Baseline != nil && topoShards == 0 && baseShards == 0 {
			// Paired single-engine point: one generation/decode pass
			// broadcasts to the topology and its baseline. Each
			// subscriber ring yields the byte-identical sequence a fresh
			// src(spec) call would, with the same per-shape seeds.
			runs, err := cluster.RunBroadcast(src(spec), []cluster.Variant{
				{Label: cfg.Topology.Name, Topology: cfg.Topology,
					Opts: pointOpts(cfg.Seed + int64(i)*104729)},
				{Label: "baseline", Topology: *cfg.Baseline,
					Opts: pointOpts(cfg.Seed + int64(i)*1299709)},
			}, 0)
			if err != nil {
				return err
			}
			res.Points[i] = topologyPoint(cfg.Rates[i], runs[0])
			res.Baseline[i] = topologyPoint(cfg.Rates[i], runs[1])
			return nil
		}
		run, err := runPoint(cfg.Topology, topoShards, cfg.Seed+int64(i)*104729)
		if err != nil {
			return err
		}
		res.Points[i] = topologyPoint(cfg.Rates[i], run)
		if cfg.Baseline != nil {
			// The same trace through the baseline shape: only the
			// deployment differs between the paired points.
			base, err := runPoint(*cfg.Baseline, baseShards, cfg.Seed+int64(i)*1299709)
			if err != nil {
				return fmt.Errorf("baseline: %w", err)
			}
			res.Baseline[i] = topologyPoint(cfg.Rates[i], base)
		}
		return nil
	})
	if err != nil {
		return TopologySweepResult{}, err
	}
	return res, nil
}

// resolveShards turns a sweep's Shards setting into a per-topology
// shard count: 0 keeps the single-engine path, AutoShards divides the
// CPUs not already busy running other sweep points across each point
// (falling back to the single engine when the topology cannot shard),
// and an explicit count is validated against Shardable. The returned
// count only affects wall-clock: RunPipelined is bit-identical at every
// shard count.
func resolveShards(setting int, topo cluster.Topology, workers, points int) (int, error) {
	switch {
	case setting == 0:
		return 0, nil
	case setting > 0:
		if err := cluster.Shardable(topo); err != nil {
			return 0, err
		}
		return setting, nil
	default:
		if cluster.Shardable(topo) != nil {
			return 0, nil
		}
		s := runtime.GOMAXPROCS(0) / poolSize(workers, points)
		if s < 1 {
			s = 1
		}
		return s, nil
	}
}

// topologyPoint flattens one run into a sweep point.
func topologyPoint(rate float64, run *cluster.TopologyResult) TopologyPoint {
	p := TopologyPoint{
		RatePerServer: rate,
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

// ThreeTierPoint compares four capacity-matched deployment shapes at
// one request rate: the paper's pure edge and pure cloud, the two-tier
// overflow hierarchy, and the three-tier edge→regional→cloud chain.
type ThreeTierPoint struct {
	RatePerServer float64
	EdgeMean      float64
	EdgeP95       float64
	CloudMean     float64
	CloudP95      float64
	OverflowMean  float64
	OverflowP95   float64
	ChainMean     float64
	ChainP95      float64
	// Escalation fractions: share of requests leaving their home site.
	OverflowSpill float64
	ChainSpillReg float64 // edge → regional
	ChainSpillCld float64 // regional → cloud
}

// ThreeTierResult is the new hierarchy figure: the latency trajectory
// of the four shapes across the paper's rate axis.
type ThreeTierResult struct {
	Rates  []float64
	Points []ThreeTierPoint
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

// RunFigThreeTier evaluates the hierarchy figure: every shape deploys
// 10 servers and replays the same per-rate trace (5 sites, 2× the
// per-server rate each), so differences are purely deployment shape —
// pooled far capacity, partitioned near capacity, or hierarchies in
// between. Points are evaluated concurrently with index-derived seeds.
func RunFigThreeTier(duration float64, seed int64) (ThreeTierResult, error) {
	chain := threeTierChain()
	if err := chain.Validate(); err != nil {
		return ThreeTierResult{}, err
	}
	model := app.NewInferenceModel()
	rates := []float64{6, 7, 8, 9, 10, 11, 12}
	res := ThreeTierResult{Rates: rates, Points: make([]ThreeTierPoint, len(rates))}
	err := forEachErr(len(rates), 0, func(i int) error {
		rate := rates[i]
		spec := cluster.GenSpec{
			Sites:       5,
			Duration:    duration,
			PerSiteRate: rate * 2, // 10 servers over 5 sites
			Model:       model,
			Seed:        seed + int64(i)*7919,
		}
		warmup := duration / 10
		opts := func(seed int64) cluster.Options {
			return cluster.Options{Warmup: warmup, Seed: seed}
		}
		cloudPath := netem.CloudTypical
		runs, err := runVariants(spec,
			cluster.Variant{Label: "edge", Opts: opts(seed + int64(i)*104729), Topology: cluster.Topology{
				Name:  "edge",
				Tiers: []cluster.Tier{{Name: "edge", Sites: 5, ServersPerSite: 2, Path: netem.EdgePath}},
			}},
			cluster.Variant{Label: "cloud", Opts: opts(seed + int64(i)*1299709), Topology: cluster.Topology{
				Name:  "cloud",
				Tiers: []cluster.Tier{cluster.CloudTier(10, cloudPath, "")},
			}},
			cluster.Variant{Label: "edge+overflow", Opts: opts(seed + int64(i)*15485863), Topology: cluster.Topology{
				Name: "edge+overflow",
				Tiers: []cluster.Tier{
					{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.EdgePath},
					cluster.CloudTier(5, cloudPath, ""),
				},
				Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloudPath}},
			}},
			cluster.Variant{Label: chain.Name, Opts: opts(seed + int64(i)*32452843), Topology: chain})
		if err != nil {
			return err
		}
		edge, cloud, over, chained := runs[0], runs[1], runs[2], runs[3]
		n := float64(edge.Offered)
		res.Points[i] = ThreeTierPoint{
			RatePerServer: rate,
			EdgeMean:      edge.MeanLatency(),
			EdgeP95:       edge.P95Latency(),
			CloudMean:     cloud.MeanLatency(),
			CloudP95:      cloud.P95Latency(),
			OverflowMean:  over.MeanLatency(),
			OverflowP95:   over.P95Latency(),
			ChainMean:     chained.MeanLatency(),
			ChainP95:      chained.P95Latency(),
			OverflowSpill: float64(over.Tiers[0].Spilled) / n,
			ChainSpillReg: float64(chained.Tier("edge").Spilled) / n,
			ChainSpillCld: float64(chained.Tier("regional").Spilled) / n,
		}
		return nil
	})
	if err != nil {
		return ThreeTierResult{}, err
	}
	return res, nil
}
