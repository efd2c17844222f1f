package experiments

import (
	"math"
	"testing"

	"repro/internal/autoscale"
)

// TestRunScalerComparisonNHPP is the acceptance check for the unified
// scaler subsystem (and the CI smoke test): on a time-varying NHPP
// workload, predictive provisioning must make observably different
// decisions from reactive thresholds, with a per-tier $/request
// reported for every row. Kept small enough for -short.
func TestRunScalerComparisonNHPP(t *testing.T) {
	cfg := ScalerComparisonConfig{
		Workload: ScalerWorkloadNHPP,
		Sites:    3,
		Duration: 300,
		Seed:     11,
		BaseRate: 18,
		Specs: []autoscale.Spec{
			{Policy: autoscale.PolicyReactive, Interval: 5, Min: 1, Max: 6,
				UpThreshold: 1.5, DownThreshold: 0.3, Cooldown: 15},
			{Policy: autoscale.PolicyPredictive, Interval: 5, Min: 1, Max: 6,
				Mu: 13, TargetUtil: 0.7, Forecaster: "holt"},
		},
	}
	res, err := RunScalerComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != ScalerWorkloadNHPP || len(res.Runs) != 2 {
		t.Fatalf("unexpected result shape: workload %q, %d runs", res.Workload, len(res.Runs))
	}
	reactive, predictive := res.Runs[0], res.Runs[1]
	if reactive.Label != "reactive" {
		t.Errorf("run 0 policy = %q", reactive.Label)
	}
	for _, run := range res.Runs {
		if mean := run.EndToEnd.Mean(); mean <= 0 || run.EndToEnd.P95() < mean {
			t.Errorf("%s: implausible latency mean %v p95 %v", run.Label, mean, run.EndToEnd.P95())
		}
		if len(run.Tiers) != 2 {
			t.Fatalf("%s: %d tiers, want 2", run.Label, len(run.Tiers))
		}
		edge := run.Tiers[0]
		if edge.ScaleUps == 0 {
			t.Errorf("%s: edge tier never scaled up on a 2.5x rate swing", run.Label)
		}
		if edge.CostPerReq <= 0 {
			t.Errorf("%s: edge $/request not reported: %v", run.Label, edge.CostPerReq)
		}
		var tierSum float64
		for _, tr := range run.Tiers {
			if tr.ServerSeconds <= 0 || tr.Cost <= 0 {
				t.Errorf("%s/%s: missing cost overlay: server-seconds %v cost %v",
					run.Label, tr.Name, tr.ServerSeconds, tr.Cost)
			}
			tierSum += tr.Cost
		}
		if math.Abs(tierSum-run.TotalCost) > 1e-9 {
			t.Errorf("%s: tier costs %v not conserved against total %v",
				run.Label, tierSum, run.TotalCost)
		}
	}
	edgeR, edgeP := reactive.Tiers[0], predictive.Tiers[0]
	if edgeR.ScaleUps == edgeP.ScaleUps && edgeR.ScaleDowns == edgeP.ScaleDowns &&
		edgeR.ServerSeconds == edgeP.ServerSeconds {
		t.Error("predictive telemetry identical to reactive on an NHPP ramp; " +
			"the policies are not differentiated")
	}
}

func TestRunScalerComparisonDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full default sweep (6 policies) in long mode only")
	}
	for _, wl := range []string{ScalerWorkloadMMPP, ScalerWorkloadAzure} {
		res, err := RunScalerComparison(ScalerComparisonConfig{
			Workload: wl, Sites: 3, Duration: 240, Seed: 13, BaseRate: 12,
		})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		// reactive + one predictive per registered forecaster.
		if len(res.Runs) != 6 {
			t.Fatalf("%s: %d runs, want 6 (reactive + 5 forecasters)", wl, len(res.Runs))
		}
		for _, run := range res.Runs {
			if run.EndToEnd.Mean() <= 0 || run.TotalCost <= 0 {
				t.Errorf("%s/%s: empty run: mean %v cost %v", wl, run.Label, run.EndToEnd.Mean(), run.TotalCost)
			}
		}
	}
}

func TestRunScalerComparisonRejectsBadInput(t *testing.T) {
	if _, err := RunScalerComparison(ScalerComparisonConfig{Workload: "steady"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := RunScalerComparison(ScalerComparisonConfig{
		Specs: []autoscale.Spec{{Policy: "oracle", Interval: 1, Min: 1, Max: 2}},
	}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := RunScalerComparison(ScalerComparisonConfig{
		Specs: []autoscale.Spec{},
	}); err == nil {
		t.Error("empty non-nil spec list accepted")
	}
}
