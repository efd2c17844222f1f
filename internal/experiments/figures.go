package experiments

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/trace"
)

// Fig3Result bundles the four series of Figures 3/4 (mean) and 5 (p95):
// edge with 1 and 2 servers per site, each paired with its cloud of 5
// and 10 servers (Rivals[0]).
type Fig3Result struct {
	Scenario  netem.Scenario
	OneServer TopologySweepResult // edge 1 server/site vs cloud 5 servers
	TwoServer TopologySweepResult // edge 2 servers/site vs cloud 10 servers
}

// RunFig3 reproduces the Figure 3/4/5 experiment for the given scenario:
// request rate per server varied 6–12, 5 sites, both the {1 server/site,
// 5 cloud servers} and {2 servers/site, 10 cloud servers} deployments.
// Unknown scenario names return an error listing the presets.
func RunFig3(scenarioName string, duration float64, seed int64) (Fig3Result, error) {
	sc, err := scenarioByName(scenarioName)
	if err != nil {
		return Fig3Result{}, err
	}
	one := PaperPairSweep(sc, 1)
	one.Duration, one.Seed = duration, seed
	two := PaperPairSweep(sc, 2)
	two.Duration, two.Seed = duration, seed+1

	res := Fig3Result{Scenario: sc}
	if res.OneServer, err = RunTopologySweep(one); err != nil {
		return Fig3Result{}, err
	}
	if res.TwoServer, err = RunTopologySweep(two); err != nil {
		return Fig3Result{}, err
	}
	return res, nil
}

// RunFig6 reproduces Figure 6: the full response-time distributions of
// the four deployments at 10 req/server/s with the distant (54 ms) cloud.
// It returns one run per deployment, labelled with its setup name
// ("edge, 1 server", ..., "cloud, 10 servers").
func RunFig6(duration float64, seed int64) ([]*cluster.TopologyResult, error) {
	sc, _ := netem.ScenarioByName("distant-54ms")
	model := app.NewInferenceModel()
	const rate = 10.0

	type setup struct {
		label          string
		serversPerSite int
		cloud          bool
		cloudServers   int
	}
	setups := []setup{
		{label: "edge, 1 server", serversPerSite: 1},
		{label: "edge, 2 servers", serversPerSite: 2},
		{label: "cloud, 5 servers", cloud: true, cloudServers: 5, serversPerSite: 1},
		{label: "cloud, 10 servers", cloud: true, cloudServers: 10, serversPerSite: 2},
	}

	out := make([]*cluster.TopologyResult, len(setups))
	err := forEachErr(len(setups), func(i int) error {
		s := setups[i]
		spec := cluster.GenSpec{
			Sites:       5,
			Duration:    duration,
			PerSiteRate: rate * float64(s.serversPerSite),
			Model:       model,
			Seed:        seed + int64(i),
		}
		topo := cluster.Topology{Name: s.label, Tiers: []cluster.Tier{{
			Name: "edge", Sites: 5, ServersPerSite: s.serversPerSite, Path: sc.Edge,
		}}}
		if s.cloud {
			topo.Tiers = []cluster.Tier{cluster.CloudTier(s.cloudServers, sc.Cloud, "")}
		}
		runs, err := runVariants(spec, cluster.Variant{Topology: topo,
			Opts: cluster.Options{Warmup: duration / 10, Seed: seed + 100 + int64(i)}})
		if err != nil {
			return err
		}
		out[i] = runs[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig7Point is one bar pair of Figure 7: the cutoff utilizations (mean
// and p95) for one cloud RTT.
type Fig7Point struct {
	Scenario     string
	CloudRTTms   float64
	MeanCutoff   float64 // utilization fraction in [0,1]; 1 = no inversion below saturation
	P95Cutoff    float64
	MeanRate     float64 // req/s/server at the mean crossover
	P95Rate      float64
	MeanInverted bool
	P95Inverted  bool
}

// RunFig7 reproduces Figure 7: for each cloud location, sweep the
// request rate finely and report the utilization above which the edge's
// mean and p95 latencies exceed the cloud's. Edge: 5 sites × 1 server;
// cloud: 5 servers.
func RunFig7(duration float64, seed int64) ([]Fig7Point, error) {
	var rates []float64
	for r := 1.0; r <= 12.5; r += 0.5 {
		rates = append(rates, r)
	}
	var out []Fig7Point
	for i, sc := range netem.PaperScenarios() {
		cfg := PaperPairSweep(sc, 1)
		cfg.Rates = rates
		cfg.Duration = duration
		cfg.Seed = seed + int64(i)*31
		res, err := RunTopologySweep(cfg)
		if err != nil {
			return nil, err
		}

		p := Fig7Point{Scenario: sc.Name, CloudRTTms: sc.Cloud.MeanRTT() * 1000}
		mu := cfg.Model.Mu()
		if rate, _, ok := res.Crossover(Mean, 0); ok {
			p.MeanCutoff, p.MeanRate, p.MeanInverted = rate/mu, rate, true
		} else {
			p.MeanCutoff, p.MeanRate = 1, mu
		}
		if rate, _, ok := res.Crossover(P95, 0); ok {
			p.P95Cutoff, p.P95Rate, p.P95Inverted = rate/mu, rate, true
		} else {
			p.P95Cutoff, p.P95Rate = 1, mu
		}
		out = append(out, p)
	}
	return out, nil
}

// AzureReplayResult bundles Figures 8–10: the per-site workload series
// and the edge and cloud runs, each with a one-minute latency Timeline.
// Figure 10's per-site boxes are the edge run's Tiers[0].Sites digests.
type AzureReplayResult struct {
	Series      []trace.SiteSeries
	EdgeResult  *cluster.TopologyResult
	CloudResult *cluster.TopologyResult
}

// RunAzureReplay reproduces the §4.5 experiment: generate 5-site
// Azure-like traces, replay them at the edge (Ohio, 1 ms) and at the
// cloud (Montreal, ~25 ms, 5 servers), and collect timelines and
// per-site distributions. spec.BaseLoad sets the load level (the
// paper's sites operate near or beyond one server's capacity at
// peaks). A spec with no sites or no minutes is an error, and so is one
// whose trace holds no requests or infinitely many (a NaN, negative or
// infinite load, say).
func RunAzureReplay(spec trace.AzureSpec, seed int64) (AzureReplayResult, error) {
	if spec.Sites <= 0 || spec.Minutes <= 0 {
		return AzureReplayResult{}, fmt.Errorf("experiments: Azure spec needs sites and minutes, got %d sites over %d minutes",
			spec.Sites, spec.Minutes)
	}
	series := trace.GenerateAzure(spec)
	var total float64
	for _, s := range series {
		total += s.Total()
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return AzureReplayResult{}, fmt.Errorf("experiments: Azure spec with base load %v generates %v requests, want a positive, finite count",
			spec.BaseLoad, total)
	}
	sc, _ := netem.ScenarioByName("typical-25ms")
	model := app.NewInferenceModel()

	gen := cluster.GenSpec{
		Sites:    spec.Sites,
		Duration: float64(spec.Minutes) * 60,
		Model:    model,
		Seed:     seed,
		Arrivals: trace.ToArrivalProcesses(series, false),
	}

	const binWidth = 60 // one-minute bins, as in Figures 8–9
	runs, err := runVariants(gen,
		cluster.Variant{Topology: cluster.Topology{Name: "edge", Tiers: []cluster.Tier{{
			Name: "edge", Sites: spec.Sites, Path: sc.Edge,
		}}}, Opts: cluster.Options{Seed: seed + 1, TimelineBin: binWidth}},
		cluster.Variant{Topology: cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{
			cluster.CloudTier(spec.Sites, sc.Cloud, ""),
		}}, Opts: cluster.Options{Seed: seed + 2, TimelineBin: binWidth}})
	if err != nil {
		return AzureReplayResult{}, err
	}
	return AzureReplayResult{Series: series, EdgeResult: runs[0], CloudResult: runs[1]}, nil
}
