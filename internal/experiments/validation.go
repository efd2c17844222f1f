package experiments

import (
	"repro/internal/app"
	"repro/internal/theory"
)

// ValidationRow compares one measured inversion point against the
// analytic predictions, reproducing the §4.2 validation: "our corollary
// 3.1.1 predicts a cutoff utilization of ρ=0.64 for Δn=30 and k=5, which
// is within 4.5% of the experimentally observed value".
type ValidationRow struct {
	Label            string
	K                int // cloud servers
	ServersPerSite   int
	DeltaNms         float64
	MeasuredRate     float64 // req/s/server at the measured crossover
	MeasuredUtil     float64
	PaperCutoff      float64 // Corollary 3.1.1 with the paper's μ convention
	ExactMMCutoff    float64 // exact M/M/m-vs-M/M/km crossover
	CalibratedCutoff float64 // Allen–Cunneen crossover at the calibrated SCVs
	RelErrPaper      float64 // (paper − measured)/measured
	RelErrCalibrated float64
}

// PaperMuConvention is the service rate at which Corollary 3.1.1
// reproduces the paper's published cutoff predictions (ρ*≈0.64 for k=5,
// ρ*≈0.75 for k=10 at Δn=30 ms). The published numbers are consistent
// with interpreting the saturation throughput "13 req/s" as a 13 ms mean
// service time (μ ≈ 76.9 req/s); with the literal 77 ms service time the
// conditional-wait difference exceeds 30 ms at every utilization. We
// implement the formulas with μ explicit and record both readings in
// EXPERIMENTS.md.
const PaperMuConvention = 1000.0 / 13.0

// RunValidation executes the Figure 3 sweeps and tabulates measured
// crossovers against the analytic predictions. A duration the generator
// rejects returns its error.
func RunValidation(duration float64, seed int64) ([]ValidationRow, error) {
	fig3, err := RunFig3("typical-25ms", duration, seed)
	if err != nil {
		return nil, err
	}
	model := app.NewInferenceModel()
	mu := model.Mu()
	dn := fig3.Scenario.DeltaN()

	rows := make([]ValidationRow, 0, 2)
	for _, c := range []struct {
		label string
		sweep TopologySweepResult
		m     int
	}{
		{"edge 1 srv/site vs cloud k=5", fig3.OneServer, 1},
		{"edge 2 srv/site vs cloud k=10", fig3.TwoServer, 2},
	} {
		dep := theory.Deployment{
			K:              5,
			ServersPerSite: c.m,
			Mu:             PaperMuConvention,
			EdgeRTT:        0,
			CloudRTT:       0.030, // the paper's Δn = 30 ms reading
		}
		depExact := theory.Deployment{
			K:              5,
			ServersPerSite: c.m,
			Mu:             mu,
			EdgeRTT:        fig3.Scenario.Edge.MeanRTT(),
			CloudRTT:       fig3.Scenario.Cloud.MeanRTT(),
		}
		row := ValidationRow{
			Label:          c.label,
			K:              5 * c.m,
			ServersPerSite: c.m,
			DeltaNms:       dn * 1000,
			PaperCutoff:    dep.CutoffUtilization311(),
			ExactMMCutoff:  depExact.CutoffUtilizationExactMM(),
			CalibratedCutoff: depExact.CutoffUtilizationExactGG(
				0.4, 0.4/5.0, app.DefaultServiceSCV),
		}
		if rate, _, ok := c.sweep.Crossover(Mean, 0); ok {
			util := rate / mu
			row.MeasuredRate, row.MeasuredUtil = rate, util
			if util > 0 {
				row.RelErrPaper = (row.PaperCutoff - util) / util
				row.RelErrCalibrated = (row.CalibratedCutoff - util) / util
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CapacityRow is one row of the §5.2 provisioning comparison.
type CapacityRow struct {
	Lambda        float64
	K             int
	CloudCapacity float64 // req/s
	EdgeCapacity  float64
	Overhead      float64 // edge/cloud
	CloudServers  int
	EdgeServers   int
}

// RunCapacityTable evaluates the two-sigma provisioning rule across
// workload intensities and site counts.
func RunCapacityTable(lambdas []float64, ks []int) []CapacityRow {
	model := app.NewInferenceModel()
	mu := model.Mu()
	var rows []CapacityRow
	for _, l := range lambdas {
		for _, k := range ks {
			cloud, edge, overhead := theory.TwoSigmaCapacity(l, k)
			cs, es := theory.TwoSigmaServers(l, k, mu)
			rows = append(rows, CapacityRow{
				Lambda:        l,
				K:             k,
				CloudCapacity: cloud,
				EdgeCapacity:  edge,
				Overhead:      overhead,
				CloudServers:  cs,
				EdgeServers:   es,
			})
		}
	}
	return rows
}
