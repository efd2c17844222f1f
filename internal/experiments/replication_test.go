package experiments

import "testing"

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
