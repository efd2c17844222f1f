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
	if res.Workload != ScalerWorkloadNHPP || len(res.Rows) != 2 {
		t.Fatalf("unexpected result shape: workload %q, %d rows", res.Workload, len(res.Rows))
	}
	reactive, predictive := res.Rows[0], res.Rows[1]
	if reactive.Policy != "reactive" {
		t.Errorf("row 0 policy = %q", reactive.Policy)
	}
	for _, row := range res.Rows {
		if row.Mean <= 0 || row.P95 < row.Mean {
			t.Errorf("%s: implausible latency mean %v p95 %v", row.Policy, row.Mean, row.P95)
		}
		if len(row.Tiers) != 2 {
			t.Fatalf("%s: %d tier rows, want 2", row.Policy, len(row.Tiers))
		}
		edge := row.Tiers[0]
		if edge.ScaleUps == 0 {
			t.Errorf("%s: edge tier never scaled up on a 2.5x rate swing", row.Policy)
		}
		if edge.CostPerReq <= 0 {
			t.Errorf("%s: edge $/request not reported: %v", row.Policy, edge.CostPerReq)
		}
		var tierSum float64
		for _, tr := range row.Tiers {
			if tr.ServerSeconds <= 0 || tr.Cost <= 0 {
				t.Errorf("%s/%s: missing cost overlay: server-seconds %v cost %v",
					row.Policy, tr.Tier, tr.ServerSeconds, tr.Cost)
			}
			tierSum += tr.Cost
		}
		if math.Abs(tierSum-row.TotalCost) > 1e-9 {
			t.Errorf("%s: tier costs %v not conserved against total %v",
				row.Policy, tierSum, row.TotalCost)
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
		if len(res.Rows) != 6 {
			t.Fatalf("%s: %d rows, want 6 (reactive + 5 forecasters)", wl, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.Mean <= 0 || row.TotalCost <= 0 {
				t.Errorf("%s/%s: empty row: mean %v cost %v", wl, row.Policy, row.Mean, row.TotalCost)
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
