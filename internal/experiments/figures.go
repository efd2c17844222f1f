package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig3Result bundles the four series of Figures 3/4 (mean) and 5 (p95):
// edge with 1 and 2 servers per site, each paired with its cloud of 5
// and 10 servers (Rivals[0]).
type Fig3Result struct {
	Scenario  netem.Scenario
	Rates     []float64
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

	res := Fig3Result{Scenario: sc, Rates: one.Rates}
	if res.OneServer, err = RunTopologySweep(one); err != nil {
		return Fig3Result{}, err
	}
	if res.TwoServer, err = RunTopologySweep(two); err != nil {
		return Fig3Result{}, err
	}
	return res, nil
}

// Fig6Scenario is one violin of Figure 6.
type Fig6Scenario struct {
	Label   string
	Summary stats.DistSummary
	Box     stats.BoxPlot
}

// RunFig6 reproduces Figure 6: the full response-time distributions of
// the four deployments at 10 req/server/s with the distant (54 ms) cloud.
func RunFig6(duration float64, seed int64) ([]Fig6Scenario, error) {
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

	out := make([]Fig6Scenario, len(setups))
	err := forEachErr(len(setups), func(i int) error {
		s := setups[i]
		spec := cluster.GenSpec{
			Sites:       5,
			Duration:    duration,
			PerSiteRate: rate * float64(s.serversPerSite),
			Model:       model,
			Seed:        seed + int64(i),
		}
		topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{{
			Name: "edge", Sites: 5, ServersPerSite: s.serversPerSite, Path: sc.Edge,
		}}}
		if s.cloud {
			topo = cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{cluster.CloudTier(s.cloudServers, sc.Cloud, "")}}
		}
		runs, err := runVariants(spec, cluster.Variant{Topology: topo,
			Opts: cluster.Options{Warmup: duration / 10, Seed: seed + 100 + int64(i)}})
		if err != nil {
			return err
		}
		sample := &runs[0].EndToEnd
		out[i] = Fig6Scenario{
			Label:   s.label,
			Summary: sample.Summarize(s.label, nil),
			Box:     sample.Box(s.label),
		}
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

// AzureReplayResult bundles Figures 8–10: the per-site workload series,
// the edge and cloud latency timelines, and per-site latency box plots.
type AzureReplayResult struct {
	Series        []trace.SiteSeries
	EdgeTimeline  *stats.TimeSeries
	CloudTimeline *stats.TimeSeries
	EdgeBoxes     []stats.BoxPlot // one per edge site
	CloudBox      stats.BoxPlot
	EdgeResult    *cluster.TopologyResult
	CloudResult   *cluster.TopologyResult
}

// RunAzureReplay reproduces the §4.5 experiment: generate (or accept)
// 5-site Azure-like traces, replay them at the edge (Ohio, 1 ms) and at
// the cloud (Montreal, ~25 ms, 5 servers), and collect timelines and
// per-site distributions. scale multiplies trace rates to hit the
// desired utilization regime (the paper's sites operate near or beyond
// one server's capacity at peaks).
func RunAzureReplay(spec trace.AzureSpec, scale float64, seed int64) (AzureReplayResult, error) {
	series := trace.GenerateAzure(spec)
	if scale != 1 && scale > 0 {
		for si := range series {
			for i := range series[si].Counts {
				series[si].Counts[i] *= scale
			}
		}
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
	edge, cloud := runs[0], runs[1]

	res := AzureReplayResult{
		Series:        series,
		EdgeTimeline:  edge.Timeline,
		CloudTimeline: cloud.Timeline,
		EdgeResult:    edge,
		CloudResult:   cloud,
	}
	for i, site := range edge.Tiers[0].Sites {
		res.EdgeBoxes = append(res.EdgeBoxes, site.EndToEnd.Box(fmt.Sprintf("Edge %d", i+1)))
	}
	res.CloudBox = cloud.EndToEnd.Box("Cloud")
	return res, nil
}
