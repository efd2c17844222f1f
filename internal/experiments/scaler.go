package experiments

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/econ"
	"repro/internal/forecast"
	"repro/internal/netem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scaler-comparison workload families. All three are time-varying —
// the regimes where reactive and predictive provisioning actually
// diverge: MMPP bursts (Corollary 3.2.1), NHPP diurnal ramps, and the
// synthetic Azure serverless trace of §4.1.
const (
	ScalerWorkloadMMPP  = "mmpp"
	ScalerWorkloadNHPP  = "nhpp"
	ScalerWorkloadAzure = "azure"
)

// ScalerWorkloads lists the supported workload names.
func ScalerWorkloads() []string {
	return []string{ScalerWorkloadMMPP, ScalerWorkloadNHPP, ScalerWorkloadAzure}
}

// scalerWorkloadBuilders maps every supported workload family to its
// per-site arrival-process builder — the single table both validation
// and derivation read, so a name cannot validate without also deriving
// (a test pins it against ScalerWorkloads). Builders return fresh,
// unconsumed processes on every call.
var scalerWorkloadBuilders = map[string]func(cfg ScalerComparisonConfig) []workload.ArrivalProcess{
	ScalerWorkloadMMPP:  mmppScalerArrivals,
	ScalerWorkloadNHPP:  nhppScalerArrivals,
	ScalerWorkloadAzure: azureScalerArrivals,
}

// ScalerComparisonConfig sweeps scaler policies over one workload: each
// spec drives the same two-tier deployment (scaled edge sites spilling
// to a static cloud backstop) on the same trace with the same run seed,
// so every difference between runs is the policy alone. One generator
// source (cluster.Stream) broadcasts to every run through bounded rings
// (cluster.RunBroadcast): one generation pass in total, memory
// independent of the request count. The nhpp and azure families still
// hold their rate envelopes (O(Duration/binWidth) per site, nothing per
// request), and the runs' latency summaries are bounded-memory sketches,
// so a sweep can run 10⁸ requests.
type ScalerComparisonConfig struct {
	// Workload selects the arrival family (default nhpp).
	Workload string
	// Sites is the edge tier's site count (default 5).
	Sites int
	// Duration is the simulated seconds (default 600; the azure
	// workload rounds to whole minutes).
	Duration float64
	// Warmup discards early measurements (default Duration/10); an
	// explicit warmup must lie below Duration.
	Warmup float64
	Seed   int64
	// BaseRate is the mean per-site arrival rate in req/s (zero selects
	// the default, 8; a NaN, infinite or negative rate is an error). The
	// time-varying envelopes swing around it.
	BaseRate float64
	// MinServers/MaxServers bound each edge site's capacity
	// (defaults 1 and 6).
	MinServers, MaxServers int
	// Mu is the per-server service rate handed to predictive specs
	// (zero selects the default, app.SaturationRate; a NaN, infinite or
	// negative rate is an error).
	Mu float64
	// Specs are the policies to compare; nil selects
	// DefaultScalerSpecs (reactive + predictive × every forecaster).
	Specs []autoscale.Spec
	// Pricing prices the cost overlay (zero value = DefaultPricing).
	Pricing econ.Pricing
}

// ScalerComparisonResult is a completed policy sweep: one run per spec,
// in spec order, each labelled with its spec's Label.
type ScalerComparisonResult struct {
	Workload string
	Runs     []*cluster.TopologyResult
}

// DefaultScalerSpecs returns the standard comparison set: the default
// reactive threshold policy plus one predictive spec per registered
// forecaster.
func DefaultScalerSpecs(min, max int, mu float64) []autoscale.Spec {
	specs := []autoscale.Spec{autoscale.DefaultReactiveSpec(min, max)}
	for _, name := range forecast.Names() {
		specs = append(specs, autoscale.DefaultPredictiveSpec(min, max, mu, name))
	}
	return specs
}

// mmppScalerArrivals: bursty regime switching — quiet at 0.4× base,
// bursts at 2.5×, with minute-scale sojourns.
func mmppScalerArrivals(cfg ScalerComparisonConfig) []workload.ArrivalProcess {
	procs := make([]workload.ArrivalProcess, cfg.Sites)
	for i := range procs {
		procs[i] = workload.NewMMPP(0.4*cfg.BaseRate, 2.5*cfg.BaseRate, 50, 25)
	}
	return procs
}

// nhppScalerArrivals: a diurnal-shaped ramp per site, phase-shifted so
// sites peak at different times (the paper's spatial-drift setting,
// §3.2): rate(t) = base × (0.25 + 1.5 sin²(πt/D + phase)).
func nhppScalerArrivals(cfg ScalerComparisonConfig) []workload.ArrivalProcess {
	procs := make([]workload.ArrivalProcess, cfg.Sites)
	bins := int(math.Ceil(cfg.Duration / 30))
	if bins < 2 {
		bins = 2
	}
	for i := range procs {
		phase := math.Pi * float64(i) / float64(cfg.Sites)
		rates := make([]float64, bins)
		for b := range rates {
			t := (float64(b) + 0.5) / float64(bins)
			s := math.Sin(math.Pi*t + phase)
			rates[b] = cfg.BaseRate * (0.25 + 1.5*s*s)
		}
		procs[i] = workload.NewNHPP(rates, cfg.Duration/float64(bins), false)
	}
	return procs
}

// azureScalerArrivals: the synthetic Azure serverless trace of §4.1.
func azureScalerArrivals(cfg ScalerComparisonConfig) []workload.ArrivalProcess {
	spec := trace.DefaultAzureSpec()
	spec.Sites = cfg.Sites
	spec.Minutes = int(math.Max(1, math.Round(cfg.Duration/60)))
	spec.Seed = cfg.Seed
	return trace.ToArrivalProcesses(trace.GenerateAzure(spec), false)
}

// scalerWorkloadBuilder resolves a workload family name to its builder
// — the one lookup (and one error message) every caller shares.
func scalerWorkloadBuilder(name string) (func(ScalerComparisonConfig) []workload.ArrivalProcess, error) {
	build, ok := scalerWorkloadBuilders[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scaler workload %q (want one of %v)",
			name, ScalerWorkloads())
	}
	return build, nil
}

// scalerSpecFrom assembles the comparison spec around freshly built
// arrival processes. Arrival processes are stateful and consumed by a
// single Stream call, so every source derivation calls
// this again; identical cfg always yields the identical record
// sequence (the builders are deterministic in cfg).
func scalerSpecFrom(cfg ScalerComparisonConfig,
	build func(ScalerComparisonConfig) []workload.ArrivalProcess) cluster.GenSpec {
	return cluster.GenSpec{
		Sites:    cfg.Sites,
		Duration: cfg.Duration,
		Model:    app.NewInferenceModel(),
		Seed:     cfg.Seed,
		Arrivals: build(cfg),
	}
}

// scalerTopology builds the comparison deployment for one spec: scaled
// edge sites spilling overload to a static cloud backstop. It is named
// after the spec's Label, so its run's Label names the policy.
func scalerTopology(cfg ScalerComparisonConfig, spec autoscale.Spec) cluster.Topology {
	s := spec
	cloudPath := netem.CloudTypical
	return cluster.Topology{
		Name: spec.Label(),
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: cfg.Sites, ServersPerSite: cfg.MinServers,
				Path: netem.EdgePath, Scaler: &s},
			{Name: "cloud", Sites: 1, ServersPerSite: cfg.Sites,
				Path: cloudPath, Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{{
			From: "edge", To: "cloud",
			Threshold:  2 * cfg.MaxServers,
			DetourPath: &cloudPath,
		}},
	}
}

// rateOrDefault returns def for a zero rate and v for a positive finite
// one. Any other value is an error naming the config field: an
// infinite rate would never let the generator return.
func rateOrDefault(field string, v, def float64) (float64, error) {
	switch {
	case v == 0:
		return def, nil
	case !(v > 0) || math.IsInf(v, 1):
		return 0, fmt.Errorf("experiments: scaler comparison %s %v is not a positive finite rate", field, v)
	}
	return v, nil
}

// RunScalerComparison replays one time-varying workload through the
// same deployment under every scaler spec and reports latency, scaling
// telemetry, and the per-tier cost overlay — the reactive-vs-predictive
// per-tier comparison the ROADMAP names, with §7 economics attached.
// Specs are evaluated concurrently; all share one trace and one run
// seed, so runs differ only by policy.
func RunScalerComparison(cfg ScalerComparisonConfig) (ScalerComparisonResult, error) {
	if cfg.Workload == "" {
		cfg.Workload = ScalerWorkloadNHPP
	}
	if cfg.Sites <= 0 {
		cfg.Sites = 5
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 600
	}
	switch {
	case cfg.Warmup <= 0:
		cfg.Warmup = cfg.Duration / 10
	case !(cfg.Warmup < cfg.Duration):
		return ScalerComparisonResult{}, fmt.Errorf("experiments: warmup %v is not below duration %v: the run would measure nothing",
			cfg.Warmup, cfg.Duration)
	}
	var err error
	if cfg.BaseRate, err = rateOrDefault("BaseRate", cfg.BaseRate, 8); err != nil {
		return ScalerComparisonResult{}, err
	}
	if cfg.MinServers <= 0 {
		cfg.MinServers = 1
	}
	if cfg.MaxServers <= 0 {
		cfg.MaxServers = 6
	}
	if cfg.Mu, err = rateOrDefault("Mu", cfg.Mu, app.SaturationRate); err != nil {
		return ScalerComparisonResult{}, err
	}
	if cfg.Pricing == (econ.Pricing{}) {
		cfg.Pricing = econ.DefaultPricing()
	}
	specs := cfg.Specs
	if specs == nil {
		specs = DefaultScalerSpecs(cfg.MinServers, cfg.MaxServers, cfg.Mu)
	}
	if len(specs) == 0 {
		return ScalerComparisonResult{}, fmt.Errorf("experiments: scaler comparison needs specs")
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return ScalerComparisonResult{}, fmt.Errorf("experiments: spec %d: %w", i, err)
		}
	}
	// Resolve the workload builder before any source derivation: a bad
	// name errors here without building anything.
	build, err := scalerWorkloadBuilder(cfg.Workload)
	if err != nil {
		return ScalerComparisonResult{}, err
	}
	spec := scalerSpecFrom(cfg, build)
	if err := spec.Validate(); err != nil {
		return ScalerComparisonResult{}, fmt.Errorf("experiments: %w", err)
	}
	opts := cluster.Options{
		Warmup:  cfg.Warmup,
		Seed:    cfg.Seed + 1, // shared across specs: same streams, policy is the only delta
		Pricing: &cfg.Pricing,
	}
	variants := make([]cluster.Variant, len(specs))
	for i, s := range specs {
		variants[i] = cluster.Variant{
			Label:    s.Label(),
			Topology: scalerTopology(cfg, s),
			Opts:     opts,
		}
	}
	runs, err := cluster.RunBroadcast(cluster.Stream(spec), variants, 0)
	if err != nil {
		return ScalerComparisonResult{}, err
	}
	return ScalerComparisonResult{Workload: cfg.Workload, Runs: runs}, nil
}
