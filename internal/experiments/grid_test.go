package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func smokeGridConfig() GridConfig {
	return GridConfig{
		Sites:    3,
		Rates:    []float64{2, 8, 20},
		Budgets:  []int{6, 9},
		Depths:   []int{1, 2},
		Duration: 60,
		Seed:     11,
	}
}

// TestRunGrid is the CI smoke: a small surface completes, has the
// right shape, and every cell carries measurements.
func TestRunGrid(t *testing.T) {
	cfg := smokeGridConfig()
	res, err := RunGrid(cfg)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	wantCells := len(cfg.Rates) * len(cfg.Budgets) * len(cfg.Depths)
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}
	wantBase := len(cfg.Rates) * len(cfg.Budgets)
	if len(res.Baselines) != wantBase {
		t.Fatalf("baselines = %d, want %d", len(res.Baselines), wantBase)
	}
	if len(res.Crossovers) != len(cfg.Budgets)*len(cfg.Depths) {
		t.Fatalf("crossovers = %d, want %d", len(res.Crossovers), len(cfg.Budgets)*len(cfg.Depths))
	}
	for _, c := range append(append([]GridCell(nil), res.Cells...), res.Baselines...) {
		if c.Mean <= 0 || c.P95 < c.Mean {
			t.Errorf("cell rate=%v b=%d d=%d: mean=%v p95=%v", c.Rate, c.Budget, c.Depth, c.Mean, c.P95)
		}
	}
	// The surface must answer "which depth delays inversion longest"
	// for each budget, whichever depth that turns out to be.
	for _, b := range cfg.Budgets {
		if _, _, ok := res.BestDepth(b); !ok {
			t.Errorf("BestDepth(%d): no depth survived the floor", b)
		}
	}
}

// TestRunGridDeterministicAcrossWorkers pins the claim that every
// seed derives from the group index alone: the surface is identical
// at any pool size.
func TestRunGridDeterministicAcrossWorkers(t *testing.T) {
	cfg := smokeGridConfig()
	cfg.Replications = 2
	var a, b GridResult
	var errA, errB error
	withProcs(4, func() { a, errA = RunGrid(cfg) })
	withProcs(1, func() { b, errB = RunGrid(cfg) })
	if errA != nil || errB != nil {
		t.Fatalf("GOMAXPROCS=4: %v; GOMAXPROCS=1: %v", errA, errB)
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Errorf("cells differ across worker counts:\n%v\n%v", a.Cells, b.Cells)
	}
	if !reflect.DeepEqual(a.Baselines, b.Baselines) {
		t.Errorf("baselines differ across worker counts")
	}
	// NaN != NaN, so compare crossovers field-wise.
	if len(a.Crossovers) != len(b.Crossovers) {
		t.Fatalf("crossover counts differ: %d vs %d", len(a.Crossovers), len(b.Crossovers))
	}
	for i := range a.Crossovers {
		x, y := a.Crossovers[i], b.Crossovers[i]
		same := x.Budget == y.Budget && x.Depth == y.Depth && x.AtFloor == y.AtFloor &&
			(x.Crossover == y.Crossover || (math.IsNaN(x.Crossover) && math.IsNaN(y.Crossover)))
		if !same {
			t.Errorf("crossover %d differs across worker counts: %+v vs %+v", i, x, y)
		}
	}
}

// TestRunGridInfeasibleBudget: a budget whose edge share cannot give
// every site a server must fail before any replay, naming the cell.
func TestRunGridInfeasibleBudget(t *testing.T) {
	cfg := smokeGridConfig()
	cfg.Sites = 5
	cfg.Budgets = []int{5} // depth 2 takes 1 for the cloud -> 4 edge servers, 5 sites
	_, err := RunGrid(cfg)
	if err == nil {
		t.Fatal("want infeasible-budget error")
	}
	if !strings.Contains(err.Error(), "depth 2") {
		t.Fatalf("error should name the infeasible cell: %v", err)
	}
}

// TestGridTopologyConservesBudget: every split spends exactly the
// budget, across all tiers, for a spread of shapes.
func TestGridTopologyConservesBudget(t *testing.T) {
	for _, sites := range []int{3, 5} {
		for budget := sites + 2; budget <= 4*sites; budget++ {
			for depth := 1; depth <= 3; depth++ {
				topo, err := gridTopology(sites, budget, depth)
				if err != nil {
					continue // infeasible shapes are exercised above
				}
				total := 0
				for _, tier := range topo.Tiers {
					if len(tier.PerSiteServers) > 0 {
						for _, n := range tier.PerSiteServers {
							total += n
						}
					} else {
						total += tier.Sites * tier.ServersPerSite
					}
				}
				if total != budget {
					t.Errorf("sites=%d budget=%d depth=%d: topology spends %d servers", sites, budget, depth, total)
				}
				if len(topo.Tiers) != depth {
					t.Errorf("sites=%d budget=%d depth=%d: %d tiers", sites, budget, depth, len(topo.Tiers))
				}
			}
		}
	}
}

// TestGridCrossoverInterpolation checks the sign-change interpolation
// against a hand-built surface (no simulation involved).
func TestGridCrossoverInterpolation(t *testing.T) {
	res := GridResult{
		Cells: []GridCell{
			{Rate: 1, Budget: 4, Depth: 2, Mean: 0.10},
			{Rate: 2, Budget: 4, Depth: 2, Mean: 0.30},
		},
		Baselines: []GridCell{
			{Rate: 1, Budget: 4, Mean: 0.20},
			{Rate: 2, Budget: 4, Mean: 0.20},
		},
	}
	// diff goes -0.10 -> +0.10: crossover at the midpoint, rate 1.5.
	diff := []float64{
		res.Cell(1, 4, 2).Mean - res.Baseline(1, 4).Mean,
		res.Cell(2, 4, 2).Mean - res.Baseline(2, 4).Mean,
	}
	got, atFloor, ok := FirstCrossing([]float64{1, 2}, diff)
	if !ok || atFloor {
		t.Fatalf("FirstCrossing found=%v atFloor=%v, want an in-range crossing", ok, atFloor)
	}
	if math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("interpolated crossover = %v, want 1.5", got)
	}
}

// TestFirstCrossing: the shared search reports the floor, skips NaN and
// zero gaps (a tie is not a loss), and finds nothing in a sweep the
// hierarchy never loses.
func TestFirstCrossing(t *testing.T) {
	nan := math.NaN()
	rates := []float64{2, 4, 6}
	for _, tc := range []struct {
		name           string
		gaps           []float64
		rate           float64
		atFloor, found bool
	}{
		{"floor", []float64{0.1, 0.2, 0.3}, 2, true, true},
		{"interpolated", []float64{-0.3, -0.1, 0.1}, 5, false, true},
		{"tie is not a loss", []float64{-0.1, 0, 0.2}, 4, false, true},
		{"never", []float64{-0.3, -0.2, 0}, 0, false, false},
		{"nan skipped", []float64{nan, -0.2, nan}, 0, false, false},
	} {
		rate, atFloor, found := FirstCrossing(rates, tc.gaps)
		if math.Abs(rate-tc.rate) > 1e-12 || atFloor != tc.atFloor || found != tc.found {
			t.Errorf("%s: got (%v, %v, %v), want (%v, %v, %v)",
				tc.name, rate, atFloor, found, tc.rate, tc.atFloor, tc.found)
		}
	}
}
