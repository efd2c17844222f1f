package cluster

import (
	"math"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/econ"
)

// TestCostOverlayStaticTiers: static tiers are priced at servers ×
// duration, home-routed tiers at the edge rate and dispatcher tiers at
// the cloud rate, and per-tier costs sum exactly to the total.
func TestCostOverlayStaticTiers(t *testing.T) {
	tr := equivalenceTrace(301)
	pricing := econ.Pricing{CloudPerServerHour: 0.10, EdgePerServerHour: 0.30}
	topo := Topology{
		Name: "priced",
		Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
			{Name: "cloud", Sites: 1, ServersPerSite: 5, Path: cloudPath(),
				Dispatch: CentralQueueDispatch},
		},
		Spills: []SpillEdge{{From: "edge", To: "cloud", Threshold: 3}},
	}
	res, err := Run(tr.Source(), topo, Options{
		Seed: 5, Pricing: &pricing,
	})
	if err != nil {
		t.Fatal(err)
	}
	hours := res.Duration / 3600
	edge, cloud := res.Tiers[0], res.Tiers[1]
	if got, want := edge.ServerSeconds, 5*res.Duration; math.Abs(got-want) > 1e-9 {
		t.Errorf("edge server-seconds = %v, want %v", got, want)
	}
	if got, want := cloud.ServerSeconds, 5*res.Duration; math.Abs(got-want) > 1e-9 {
		t.Errorf("cloud server-seconds = %v, want %v", got, want)
	}
	if got, want := edge.Cost, 5*hours*0.30; math.Abs(got-want) > 1e-9 {
		t.Errorf("edge cost = %v, want %v (edge rate)", got, want)
	}
	if got, want := cloud.Cost, 5*hours*0.10; math.Abs(got-want) > 1e-9 {
		t.Errorf("cloud cost = %v, want %v (cloud rate)", got, want)
	}
	if got := edge.Cost + cloud.Cost; got != res.TotalCost {
		t.Errorf("tier costs %v not conserved against total %v", got, res.TotalCost)
	}
	if res.Completed == 0 || res.CostPerRequest != res.TotalCost/float64(res.Completed) {
		t.Errorf("CostPerRequest = %v inconsistent with total %v / completed %d",
			res.CostPerRequest, res.TotalCost, res.Completed)
	}
	if edge.Served > 0 && math.Abs(edge.CostPerReq-edge.Cost/float64(edge.Served)) > 1e-12 {
		t.Errorf("edge CostPerReq = %v, want %v", edge.CostPerReq, edge.Cost/float64(edge.Served))
	}
	if edge.CostPerHour <= 0 || math.Abs(edge.CostPerHour-edge.Cost/hours) > 1e-9 {
		t.Errorf("edge CostPerHour = %v, want %v", edge.CostPerHour, edge.Cost/hours)
	}
}

// TestCostOverlayRejectsPartialPricing: a Pricing with a missing rate
// must error up front instead of silently pricing tiers at $0.
func TestCostOverlayRejectsPartialPricing(t *testing.T) {
	tr := equivalenceTrace(305)
	topo := Topology{Tiers: []Tier{{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()}}}
	for _, p := range []econ.Pricing{
		{CloudPerServerHour: 0.154},
		{EdgePerServerHour: 0.2},
		{CloudPerServerHour: -1, EdgePerServerHour: 0.2},
	} {
		pricing := p
		if _, err := Run(tr.Source(), topo, Options{Pricing: &pricing}); err == nil {
			t.Errorf("partial pricing %+v accepted", p)
		}
	}
}

// TestCostOverlayTierPriceOverride: Tier.PricePerServerHour replaces
// the shape-derived default.
func TestCostOverlayTierPriceOverride(t *testing.T) {
	tr := equivalenceTrace(302)
	topo := Topology{Tiers: []Tier{
		{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(), PricePerServerHour: 1.25},
	}}
	res, err := Run(tr.Source(), topo, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * res.Duration / 3600 * 1.25
	if math.Abs(res.Tiers[0].Cost-want) > 1e-9 {
		t.Errorf("overridden cost = %v, want %v", res.Tiers[0].Cost, want)
	}
}

// TestCostOverlayScaledTier: an autoscaled tier's integrated capacity
// must track the controller's event log — bounded by Min/Max, above the
// all-Min floor once it scales up, and the econ conversion must agree
// with econ.AutoscaledCost.
func TestCostOverlayScaledTier(t *testing.T) {
	procs := siteProcs([]float64{26, 10, 8, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 400, Seed: 303, Arrivals: procs})
	topo := Topology{Tiers: []Tier{{
		Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(),
		Scaler: &autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 4,
			UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6},
	}}}
	pricing := econ.DefaultPricing()
	res, err := Run(tr.Source(), topo, Options{Seed: 7, Pricing: &pricing})
	if err != nil {
		t.Fatal(err)
	}
	tier := res.Tiers[0]
	if tier.ScaleUps == 0 {
		t.Fatal("scaler never engaged; test is vacuous")
	}
	minSS, maxSS := 5*1*res.Duration, 5*4*res.Duration
	if tier.ServerSeconds <= minSS || tier.ServerSeconds >= maxSS {
		t.Errorf("scaled server-seconds = %v outside (%v, %v)", tier.ServerSeconds, minSS, maxSS)
	}
	want := econ.AutoscaledCost(tier.ServerSeconds, pricing)
	if math.Abs(tier.Cost-want) > 1e-9 {
		t.Errorf("scaled tier cost = %v, econ.AutoscaledCost gives %v", tier.Cost, want)
	}
}

// TestCostOverlayPredictiveDiffersFromReactive: the two policies make
// different provisioning decisions on the same workload, so their
// telemetry and cost must differ — the comparison the whole subsystem
// exists to enable.
func TestCostOverlayPredictiveDiffersFromReactive(t *testing.T) {
	procs := siteProcs([]float64{26, 10, 8, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 400, Seed: 304, Arrivals: procs})
	run := func(spec autoscale.Spec) TierResult {
		topo := Topology{Tiers: []Tier{{
			Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(), Scaler: &spec,
		}}}
		res, err := Run(tr.Source(), topo, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res.Tiers[0]
	}
	reactive := run(autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 4,
		UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6})
	predictive := run(autoscale.Spec{Policy: autoscale.PolicyPredictive,
		Interval: 2, Min: 1, Max: 4, Mu: 13, TargetUtil: 0.7, Forecaster: "ewma"})
	if reactive.ScalerPolicy == predictive.ScalerPolicy {
		t.Errorf("policies not distinguished: both %q", reactive.ScalerPolicy)
	}
	if predictive.ScaleUps == 0 {
		t.Fatal("predictive scaler never engaged")
	}
	if reactive.ServerSeconds == predictive.ServerSeconds &&
		reactive.ScaleUps == predictive.ScaleUps {
		t.Error("predictive telemetry identical to reactive; policies are not differentiated")
	}
}
