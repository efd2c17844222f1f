package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateAzureShape(t *testing.T) {
	spec := DefaultAzureSpec()
	series := GenerateAzure(spec)
	if len(series) != spec.Sites {
		t.Fatalf("generated %d series, want %d", len(series), spec.Sites)
	}
	for i, s := range series {
		if s.Site != i {
			t.Errorf("series %d labeled %d", i, s.Site)
		}
		if len(s.Counts) != spec.Minutes {
			t.Errorf("series %d has %d bins, want %d", i, len(s.Counts), spec.Minutes)
		}
		if s.BinWidth != 60 {
			t.Errorf("bin width = %v, want 60", s.BinWidth)
		}
		for _, c := range s.Counts {
			if c < 0 || c != math.Round(c) {
				t.Fatalf("count %v not a non-negative integer", c)
			}
		}
	}
	// Figure 8's range: counts roughly within 0–1000 req/min.
	_, maxCount := seriesRange(series)
	if maxCount < 100 || maxCount > 3000 {
		t.Errorf("peak per-minute count %v outside Figure 8's plausible range", maxCount)
	}
	// Spatial skew must be visible.
	meanSkew, _ := SkewStats(series)
	if meanSkew < 1.2 {
		t.Errorf("mean skew %v too flat for an Azure-like trace", meanSkew)
	}
}

func seriesRange(series []SiteSeries) (min, max float64) {
	min = math.Inf(1)
	for _, s := range series {
		for _, c := range s.Counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
	}
	return min, max
}

func TestGenerateAzureDeterministic(t *testing.T) {
	a := GenerateAzure(DefaultAzureSpec())
	b := GenerateAzure(DefaultAzureSpec())
	for i := range a {
		for j := range a[i].Counts {
			if a[i].Counts[j] != b[i].Counts[j] {
				t.Fatal("same seed should give identical traces")
			}
		}
	}
	spec := DefaultAzureSpec()
	spec.Seed = 999
	c := GenerateAzure(spec)
	same := true
	for i := range a {
		for j := range a[i].Counts {
			if a[i].Counts[j] != c[i].Counts[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should give different traces")
	}
}

func TestSiteSeriesRatesAndTotal(t *testing.T) {
	s := SiteSeries{Site: 0, BinWidth: 60, Counts: []float64{60, 120}}
	r := s.Rates()
	if r[0] != 1 || r[1] != 2 {
		t.Errorf("rates = %v", r)
	}
	if s.Total() != 180 {
		t.Errorf("total = %v", s.Total())
	}
}

func TestToArrivalProcesses(t *testing.T) {
	series := []SiteSeries{{Site: 0, BinWidth: 10, Counts: []float64{100}}}
	procs := ToArrivalProcesses(series, false)
	if len(procs) != 1 {
		t.Fatal("wrong process count")
	}
	// Envelope: 10 req/s for 10 s.
	if math.Abs(procs[0].Rate()-10) > 1e-9 {
		t.Errorf("rate = %v, want 10", procs[0].Rate())
	}
}

// streamedCounts decodes a WriteSiteSeriesCSV file through
// StreamAzureCSV and tallies its records per site and 60-s bin.
func streamedCounts(data []byte, sites, bins int) ([][]float64, error) {
	src := StreamAzureCSV(bytes.NewReader(data), AzureStreamOptions{BinWidth: 60, Seed: 1})
	counts := make([][]float64, sites)
	for i := range counts {
		counts[i] = make([]float64, bins)
	}
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		counts[rec.Site][int(rec.Time/60)]++
	}
	return counts, src.Err()
}

func TestCSVRoundTrip(t *testing.T) {
	series := GenerateAzure(DefaultAzureSpec())
	var buf bytes.Buffer
	if err := WriteSiteSeriesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	got, err := streamedCounts(buf.Bytes(), len(series), len(series[0].Counts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range series {
		for j := range series[i].Counts {
			if got[i][j] != series[i].Counts[j] {
				t.Fatalf("series %d bin %d: %v != %v", i, j, got[i][j], series[i].Counts[j])
			}
		}
	}
}

// TestCSVRoundTripProperty: arbitrary non-negative count matrices survive
// the round trip.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		if len(raw) == 0 {
			return true
		}
		series := make([]SiteSeries, 3)
		for i := range series {
			series[i] = SiteSeries{Site: i, BinWidth: 60}
			for _, row := range raw {
				series[i].Counts = append(series[i].Counts, float64(row[i]))
			}
		}
		var buf bytes.Buffer
		if err := WriteSiteSeriesCSV(&buf, series); err != nil {
			return false
		}
		got, err := streamedCounts(buf.Bytes(), 3, len(raw))
		if err != nil {
			return false
		}
		for i := range series {
			for j := range series[i].Counts {
				if got[i][j] != series[i].Counts[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSVErrors(t *testing.T) {
	if err := WriteSiteSeriesCSV(&bytes.Buffer{}, nil); err == nil {
		t.Error("empty series should error")
	}
	mismatched := []SiteSeries{
		{Counts: []float64{1, 2}},
		{Counts: []float64{1}},
	}
	if err := WriteSiteSeriesCSV(&bytes.Buffer{}, mismatched); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestTaxiCellLoadsConservation(t *testing.T) {
	spec := DefaultTaxiSpec()
	spec.Hours = 2
	loads := TaxiCellLoads(spec)
	if len(loads) != spec.GridW*spec.GridH {
		t.Fatalf("cells = %d, want %d", len(loads), spec.GridW*spec.GridH)
	}
	steps := len(loads[0].Counts)
	// Vehicles are conserved: per-step counts sum to the fleet size.
	for s := 0; s < steps; s++ {
		total := 0
		for _, l := range loads {
			total += l.Counts[s]
		}
		if total != spec.Vehicles {
			t.Fatalf("step %d holds %d vehicles, want %d", s, total, spec.Vehicles)
		}
	}
}

func TestTaxiSkew(t *testing.T) {
	spec := DefaultTaxiSpec()
	spec.Hours = 6
	loads := TaxiCellLoads(spec)
	boxes := CellBoxPlots(loads)
	if len(boxes) != len(loads) {
		t.Fatal("box plot count mismatch")
	}
	// Ordered by descending median, with meaningful spread between the
	// busiest and the median cell (Figure 2's point).
	for i := 1; i < len(boxes); i++ {
		if boxes[i].Median > boxes[i-1].Median+1e-9 {
			t.Fatal("box plots not sorted by median")
		}
	}
	if boxes[0].Median < 1.5*boxes[len(boxes)/2].Median {
		t.Errorf("hotspot cell median %v not clearly above median cell %v",
			boxes[0].Median, boxes[len(boxes)/2].Median)
	}
}

func TestTaxiDeterministic(t *testing.T) {
	a := TaxiCellLoads(DefaultTaxiSpec())
	b := TaxiCellLoads(DefaultTaxiSpec())
	for i := range a {
		for j := range a[i].Counts {
			if a[i].Counts[j] != b[i].Counts[j] {
				t.Fatal("taxi generator not deterministic")
			}
		}
	}
}

func TestSpecPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { GenerateAzure(AzureSpec{Sites: 0, Minutes: 10}) },
		func() { TaxiCellLoads(TaxiSpec{GridW: 0, GridH: 1, Vehicles: 1, Hours: 1, StepMinutes: 10}) },
		func() { TaxiCellLoads(TaxiSpec{GridW: 2, GridH: 2, Vehicles: 5, Hours: 0, StepMinutes: 10}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid spec should panic")
				}
			}()
			fn()
		}()
	}
}

func TestExecTimeDist(t *testing.T) {
	d := ExecTimeDist(0.077, 1.5)
	if math.Abs(d.Mean()-0.077) > 1e-9 {
		t.Errorf("exec-time mean = %v", d.Mean())
	}
	if math.Abs(d.SCV()-1.5) > 1e-9 {
		t.Errorf("exec-time SCV = %v", d.SCV())
	}
}
