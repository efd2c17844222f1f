package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
)

// Crossover grids: the full rate × capacity-budget × hierarchy-depth
// surface the ROADMAP names, answering "which depth delays inversion
// longest?". A grid cell is one deployment shape — a server budget
// split across a hierarchy of the given depth — replayed at one
// per-site rate; its paired baseline is the same budget pooled in one
// cloud queue. Cells sharing a trace (same rate, same replication) are
// grouped and driven through one cluster.RunBroadcast pass, so the
// generation cost is paid once per distinct trace instead of once per
// cell — the difference between O(rates × reps) and O(rates × budgets
// × depths × reps) generation passes.

// GridConfig describes a crossover-surface run.
type GridConfig struct {
	// Sites is the edge tier's site count (default 5).
	Sites int
	// Rates are per-site arrival rates in req/s — the load axis. The
	// trace at a rate is shared by every budget × depth cell, so rates
	// are offered load, independent of any cell's capacity.
	Rates []float64
	// Budgets are total server counts — the capacity axis. Each cell
	// splits its budget across its hierarchy (see gridTopology); the
	// paired baseline pools the identical budget in one cloud queue.
	Budgets []int
	// Depths selects hierarchy depths from {1, 2, 3}: pure edge,
	// edge→cloud overflow, edge→regional→cloud chain (default all
	// three).
	Depths []int
	// Replications averages each cell over this many independent
	// traces (default 1).
	Replications int
	// Duration is the simulated seconds per replay (default 300).
	Duration float64
	// Warmup discards early measurements (default Duration/10); an
	// explicit warmup must lie below Duration.
	Warmup float64
	Seed   int64
	Model  app.InferenceModel
	// ArrivalSCV shapes inter-arrival variability (see GenSpec).
	ArrivalSCV float64
}

// GridCell is one (rate, budget, depth) cell of the surface,
// averaged over replications. Depth 0 marks a pooled-cloud baseline
// cell.
type GridCell struct {
	Rate    float64
	Budget  int
	Depth   int
	Mean    float64 // seconds
	P95     float64
	Dropped float64 // per replication
	Spilled float64 // requests leaving their home tier, per replication
}

// GridCrossover is one (budget, depth) column's inversion point: the
// interpolated per-site rate where the hierarchy's mean latency first
// exceeds the pooled baseline's. NaN means the hierarchy stayed ahead
// (or behind, when AtFloor) across the whole rate axis.
type GridCrossover struct {
	Budget    int
	Depth     int
	Crossover float64
	// AtFloor marks a column already inverted at the lowest rate.
	AtFloor bool
}

// GridResult is a completed crossover surface.
type GridResult struct {
	Config GridConfig
	// Cells holds rates × budgets × depths hierarchy cells in
	// (rate, budget, depth) iteration order.
	Cells []GridCell
	// Baselines holds rates × budgets pooled-cloud cells (Depth 0).
	Baselines []GridCell
	// Crossovers has one entry per (budget, depth) column.
	Crossovers []GridCrossover
}

// Cell returns the hierarchy cell at the given axes, or nil.
func (r *GridResult) Cell(rate float64, budget, depth int) *GridCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Rate == rate && c.Budget == budget && c.Depth == depth {
			return c
		}
	}
	return nil
}

// Baseline returns the pooled-cloud cell at the given axes, or nil.
func (r *GridResult) Baseline(rate float64, budget int) *GridCell {
	for i := range r.Baselines {
		c := &r.Baselines[i]
		if c.Rate == rate && c.Budget == budget {
			return c
		}
	}
	return nil
}

// BestDepth reports, for one budget, the depth whose inversion point
// sits at the highest rate — the "which depth delays inversion
// longest?" answer — with ok=false when no depth ever crosses inside
// the swept range (crossover NaN and not at the floor counts as
// delaying past the range end, which beats any in-range crossing).
func (r *GridResult) BestDepth(budget int) (depth int, crossover float64, ok bool) {
	best := math.Inf(-1)
	for _, c := range r.Crossovers {
		if c.Budget != budget {
			continue
		}
		v := c.Crossover
		if c.AtFloor {
			continue // inverted before the range began
		}
		if math.IsNaN(v) {
			v = math.Inf(1) // never inverted inside the range
		}
		if v > best {
			best, depth, ok = v, c.Depth, true
		}
	}
	return depth, best, ok
}

// gridTopology splits a server budget across a hierarchy of the given
// depth. The splits are deterministic in (sites, budget, depth):
//
//	depth 1: every server at the edge (budget split round-robin
//	         across sites via PerSiteServers);
//	depth 2: a cloud backstop takes budget/3 (min 1), the edge the
//	         rest, spilling at 3x the site's servers;
//	depth 3: cloud and regional each take budget/4 (min 1), the edge
//	         the rest; edge spills regional at 3x its site servers,
//	         regional spills cloud at 2x its servers.
//
// Paths mirror the three-tier preset: ~1 ms edge, 13 ms regional,
// 25 ms cloud. An error names the infeasible cell when the edge share
// cannot give every site a server.
func gridTopology(sites, budget, depth int) (cluster.Topology, error) {
	if depth < 1 || depth > 3 {
		return cluster.Topology{}, fmt.Errorf("experiments: grid depth %d (want 1, 2 or 3)", depth)
	}
	cloudShare, regionalShare := 0, 0
	switch depth {
	case 2:
		cloudShare = max(1, budget/3)
	case 3:
		cloudShare = max(1, budget/4)
		regionalShare = max(1, budget/4)
	}
	edgeShare := budget - cloudShare - regionalShare
	if edgeShare < sites {
		return cluster.Topology{}, fmt.Errorf(
			"experiments: grid budget %d at depth %d leaves %d edge servers for %d sites",
			budget, depth, edgeShare, sites)
	}
	perSite := make([]int, sites)
	for i := range perSite {
		perSite[i] = edgeShare / sites
		if i < edgeShare%sites {
			perSite[i]++
		}
	}
	maxPerSite := perSite[0] // round-robin split: site 0 holds the max
	regional := netem.Jittered("regional-13ms", 0.013, 0.002)
	cloud := netem.CloudTypical
	topo := cluster.Topology{
		Name: fmt.Sprintf("grid-b%d-d%d", budget, depth),
		Tiers: []cluster.Tier{{
			Name: "edge", Sites: sites, ServersPerSite: perSite[sites-1],
			PerSiteServers: perSite, Path: netem.EdgePath,
		}},
	}
	switch depth {
	case 2:
		topo.Tiers = append(topo.Tiers, cluster.Tier{
			Name: "cloud", Sites: 1, ServersPerSite: cloudShare,
			Path: cloud, Dispatch: cluster.CentralQueueDispatch,
		})
		topo.Spills = []cluster.SpillEdge{{
			From: "edge", To: "cloud",
			Threshold: 3 * maxPerSite, DetourPath: &cloud,
		}}
	case 3:
		topo.Tiers = append(topo.Tiers,
			cluster.Tier{
				Name: "regional", Sites: 1, ServersPerSite: regionalShare,
				Path: regional, Dispatch: cluster.CentralQueueDispatch,
			},
			cluster.Tier{
				Name: "cloud", Sites: 1, ServersPerSite: cloudShare,
				Path: cloud, Dispatch: cluster.CentralQueueDispatch,
			})
		topo.Spills = []cluster.SpillEdge{
			{From: "edge", To: "regional",
				Threshold: 3 * maxPerSite, DetourPath: &regional},
			{From: "regional", To: "cloud",
				Threshold: 2 * regionalShare, DetourPath: &cloud},
		}
	}
	return topo, topo.Validate()
}

// gridBaseline pools the budget in one central cloud queue.
func gridBaseline(budget int) cluster.Topology {
	return cluster.Topology{
		Name:  fmt.Sprintf("grid-b%d-pooled", budget),
		Tiers: []cluster.Tier{cluster.CloudTier(budget, netem.CloudTypical, "")},
	}
}

// RunGrid evaluates the crossover surface. Cells are grouped by
// distinct trace — one (rate, replication) pair — and each group's
// budget × depth hierarchies plus per-budget pooled baselines replay
// concurrently from one broadcast pass over a single generator source.
// Groups are claimed by a pool of GOMAXPROCS workers; every seed
// derives from the group index alone, so the surface is byte-identical
// at any GOMAXPROCS.
func RunGrid(cfg GridConfig) (GridResult, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 5
	}
	if len(cfg.Rates) == 0 {
		return GridResult{}, fmt.Errorf("experiments: grid needs rates")
	}
	if len(cfg.Budgets) == 0 {
		return GridResult{}, fmt.Errorf("experiments: grid needs budgets")
	}
	if len(cfg.Depths) == 0 {
		cfg.Depths = []int{1, 2, 3}
	}
	if cfg.Replications <= 0 {
		cfg.Replications = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 300
	}
	switch {
	case cfg.Warmup <= 0:
		cfg.Warmup = cfg.Duration / 10
	case !(cfg.Warmup < cfg.Duration):
		return GridResult{}, fmt.Errorf("experiments: warmup %v is not below duration %v: the run would measure nothing",
			cfg.Warmup, cfg.Duration)
	}
	if cfg.Model.D == nil {
		cfg.Model = app.NewInferenceModel()
	}
	rates := append([]float64(nil), cfg.Rates...)
	sort.Float64s(rates)
	cfg.Rates = rates

	// Build every variant once up front: an infeasible budget × depth
	// errors before any replay starts. The variant list is shared by
	// every group — only the trace (and the run seed) differs.
	type cellKey struct{ budget, depth int }
	variants := make([]cluster.Variant, 0, len(cfg.Budgets)*(len(cfg.Depths)+1))
	keys := make([]cellKey, 0, cap(variants))
	for _, b := range cfg.Budgets {
		for _, d := range cfg.Depths {
			topo, err := gridTopology(cfg.Sites, b, d)
			if err != nil {
				return GridResult{}, err
			}
			variants = append(variants, cluster.Variant{Label: topo.Name, Topology: topo})
			keys = append(keys, cellKey{b, d})
		}
		base := gridBaseline(b)
		variants = append(variants, cluster.Variant{Label: base.Name, Topology: base})
		keys = append(keys, cellKey{b, 0})
	}

	groups := len(cfg.Rates) * cfg.Replications
	specs := make([]cluster.GenSpec, groups)
	for g := range specs {
		specs[g] = cluster.GenSpec{
			Sites:       cfg.Sites,
			Duration:    cfg.Duration,
			PerSiteRate: cfg.Rates[g/cfg.Replications],
			ArrivalSCV:  cfg.ArrivalSCV,
			Model:       cfg.Model,
			Seed:        cfg.Seed + int64(g)*7919,
		}
		if err := specs[g].Validate(); err != nil {
			return GridResult{}, fmt.Errorf("experiments: grid: %w", err)
		}
	}
	perGroup := make([][]*cluster.TopologyResult, groups)
	err := forEachErr(groups, func(g int) error {
		rate := cfg.Rates[g/cfg.Replications]
		vs := make([]cluster.Variant, len(variants))
		copy(vs, variants)
		for i := range vs {
			vs[i].Opts = cluster.Options{Warmup: cfg.Warmup, Seed: cfg.Seed + int64(g)*104729}
		}
		runs, err := cluster.RunBroadcast(cluster.Stream(specs[g]), vs, 0)
		if err != nil {
			return fmt.Errorf("grid group rate=%v rep=%d: %w", rate, g%cfg.Replications, err)
		}
		perGroup[g] = runs
		return nil
	})
	if err != nil {
		return GridResult{}, err
	}

	// Reduce replications in group order (deterministic at any pool
	// size: results are indexed, never appended by completion).
	res := GridResult{Config: cfg}
	reps := float64(cfg.Replications)
	for ri, rate := range cfg.Rates {
		for vi, key := range keys {
			cell := GridCell{Rate: rate, Budget: key.budget, Depth: key.depth}
			for rep := 0; rep < cfg.Replications; rep++ {
				run := perGroup[ri*cfg.Replications+rep][vi]
				cell.Mean += run.EndToEnd.Mean() / reps
				cell.P95 += run.EndToEnd.P95() / reps
				cell.Dropped += float64(run.Dropped) / reps
				for _, tier := range run.Tiers {
					cell.Spilled += float64(tier.Spilled) / reps
				}
			}
			if key.depth == 0 {
				res.Baselines = append(res.Baselines, cell)
			} else {
				res.Cells = append(res.Cells, cell)
			}
		}
	}

	// Crossovers: the first sign change of (hierarchy mean - pooled
	// mean) along the rate axis.
	for _, b := range cfg.Budgets {
		for _, d := range cfg.Depths {
			gaps := make([]float64, len(cfg.Rates))
			for i, rate := range cfg.Rates {
				gaps[i] = res.Cell(rate, b, d).Mean - res.Baseline(rate, b).Mean
			}
			cross := GridCrossover{Budget: b, Depth: d, Crossover: math.NaN()}
			if rate, atFloor, ok := FirstCrossing(cfg.Rates, gaps); atFloor {
				cross.AtFloor = true
			} else if ok {
				cross.Crossover = rate
			}
			res.Crossovers = append(res.Crossovers, cross)
		}
	}
	return res, nil
}
