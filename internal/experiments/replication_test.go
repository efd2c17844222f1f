package experiments

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestRunReplicatedSweep(t *testing.T) {
	cfg := paperPair("typical-25ms", 1)
	cfg.Rates = []float64{6, 12}
	cfg.Duration = 120
	cfg.Warmup = 12
	points, err := RunReplicatedSweep(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Replications != 4 {
			t.Error("replication count wrong")
		}
		if p.EdgeMean <= 0 || p.CloudMean <= 0 {
			t.Fatal("non-positive means")
		}
		if p.EdgeMeanCI < 0 || p.CloudMeanCI < 0 {
			t.Fatal("negative CI")
		}
		if p.EdgeP95 < p.EdgeMean {
			t.Error("p95 below mean")
		}
	}
	// At 6 req/s the comparison should be statistically resolved in the
	// edge's favor; at 12 in the cloud's.
	if !points[0].Separated() {
		t.Error("6 req/s comparison should separate")
	}
	if points[0].EdgeMean >= points[0].CloudMean {
		t.Error("edge should win at 6 req/s")
	}
	if points[1].EdgeMean <= points[1].CloudMean {
		t.Error("cloud should win at 12 req/s")
	}
}

func TestRunReplicatedSweepRejectsZeroReplications(t *testing.T) {
	if _, err := RunReplicatedSweep(paperPair("typical-25ms", 1), 0); err == nil {
		t.Error("n=0 should be an error")
	}
	if _, _, _, err := CrossoverCI(paperPair("typical-25ms", 1), Mean, 0); err == nil {
		t.Error("CrossoverCI with n=0 should be an error")
	}
}

func TestCrossoverCI(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated crossover is long")
	}
	cfg := paperPair("typical-25ms", 1)
	cfg.Duration = 150
	cfg.Warmup = 15
	rate, ci, ok, err := CrossoverCI(cfg, Mean, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("crossover should be found in most replications")
	}
	if rate < 7 || rate > 11 {
		t.Errorf("replicated crossover %v ± %v outside plausible range", rate, ci)
	}
	if ci <= 0 || ci > 3 {
		t.Errorf("CI half-width %v implausible", ci)
	}
}

func mkSeries(binWidth float64, means ...float64) *stats.TimeSeries {
	ts := stats.NewTimeSeries(0, binWidth)
	for i, m := range means {
		if math.IsNaN(m) {
			continue // leave the bin empty
		}
		t := (float64(i) + 0.5) * binWidth
		ts.Add(t, m)
	}
	return ts
}

func TestDetectInversions(t *testing.T) {
	nan := math.NaN()
	edge := mkSeries(60, 50, 120, 130, 80, 90, 200, nan, 210)
	cloud := mkSeries(60, 100, 100, 100, 100, 100, 100, 100, 100)
	ivs := DetectInversions(edge, cloud)
	// Three intervals: bins 1–2, bin 5 (closed by the empty bin 6), and
	// bin 7 (re-opened after the gap).
	if len(ivs) != 3 {
		t.Fatalf("intervals = %+v, want 3", ivs)
	}
	// First: bins 1–2.
	if ivs[0].StartBin != 1 || ivs[0].EndBin != 2 {
		t.Errorf("first interval bins %d–%d, want 1–2", ivs[0].StartBin, ivs[0].EndBin)
	}
	if math.Abs(ivs[0].StartTime-60) > 1e-9 || math.Abs(ivs[0].EndTime-180) > 1e-9 {
		t.Errorf("first interval time [%v, %v], want [60, 180]", ivs[0].StartTime, ivs[0].EndTime)
	}
	if math.Abs(ivs[0].PeakRatio-1.3) > 1e-9 {
		t.Errorf("first peak ratio %v, want 1.3", ivs[0].PeakRatio)
	}
	if math.Abs(ivs[0].Duration()-120) > 1e-9 {
		t.Errorf("duration %v, want 120", ivs[0].Duration())
	}
	if ivs[1].StartBin != 5 || ivs[1].EndBin != 5 {
		t.Errorf("second interval bins %d–%d, want 5–5", ivs[1].StartBin, ivs[1].EndBin)
	}
	if ivs[2].StartBin != 7 {
		t.Errorf("third interval starts at %d, want 7", ivs[2].StartBin)
	}
}

func TestDetectInversionsNone(t *testing.T) {
	edge := mkSeries(60, 50, 60, 70)
	cloud := mkSeries(60, 100, 100, 100)
	if ivs := DetectInversions(edge, cloud); len(ivs) != 0 {
		t.Errorf("no inversion expected, got %+v", ivs)
	}
	if ivs := DetectInversions(nil, cloud); ivs != nil {
		t.Error("nil series should return nil")
	}
}

func TestDetectInversionsTrailingOpen(t *testing.T) {
	edge := mkSeries(60, 50, 150, 150)
	cloud := mkSeries(60, 100, 100, 100)
	ivs := DetectInversions(edge, cloud)
	if len(ivs) != 1 || ivs[0].EndBin != 2 {
		t.Errorf("trailing interval wrong: %+v", ivs)
	}
}

func TestInversionFraction(t *testing.T) {
	edge := mkSeries(60, 50, 150, 300, 80)
	cloud := mkSeries(60, 100, 100, 100, 100)
	frac, peak := InversionFraction(edge, cloud)
	if math.Abs(frac-0.5) > 1e-9 {
		t.Errorf("fraction = %v, want 0.5", frac)
	}
	if math.Abs(peak-3) > 1e-9 {
		t.Errorf("peak = %v, want 3", peak)
	}
	if f, _ := InversionFraction(nil, nil); f != 0 {
		t.Error("nil series fraction should be 0")
	}
}

// TestInversionFractionOnAzureReplay ties the detector to the real
// Figure 9 artifact: the skewed Azure workload must invert a meaningful
// fraction of minutes.
func TestInversionFractionOnAzureReplay(t *testing.T) {
	spec := azureShortSpec()
	res, err := RunAzureReplay(spec, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	frac, peak := InversionFraction(res.EdgeTimeline, res.CloudTimeline)
	if frac == 0 {
		t.Error("Azure replay should show per-minute inversions")
	}
	if peak <= 1 {
		t.Error("peak ratio should exceed 1")
	}
	ivs := DetectInversions(res.EdgeTimeline, res.CloudTimeline)
	if len(ivs) == 0 {
		t.Error("expected at least one inversion interval")
	}
}
