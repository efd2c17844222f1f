package cluster

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// TestGenSpecRejectsBadNumbers: Validate must return an error, and
// deriveArrivals panic with it, on the NaN/Inf holes that ordered
// comparisons miss — a NaN duration passes "<= 0" and would generate
// forever; a NaN rate or SCV poisons every inter-arrival draw; an
// arrival process with an infinite rate yields every record at t = 0,
// and a nil one would be dereferenced by the generator.
func TestGenSpecRejectsBadNumbers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]GenSpec{
		"zero sites":       {Duration: 10, PerSiteRate: 5},
		"zero duration":    {Sites: 2, PerSiteRate: 5},
		"nan duration":     {Sites: 2, Duration: nan, PerSiteRate: 5},
		"inf duration":     {Sites: 2, Duration: inf, PerSiteRate: 5},
		"zero rate":        {Sites: 2, Duration: 10},
		"nan rate":         {Sites: 2, Duration: 10, PerSiteRate: nan},
		"inf rate":         {Sites: 2, Duration: 10, PerSiteRate: inf},
		"negative rate":    {Sites: 2, Duration: 10, PerSiteRate: -3},
		"nan scv":          {Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: nan},
		"inf scv":          {Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: inf},
		"negative scv":     {Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: -0.4},
		"nil process":      {Sites: 2, Duration: 10, Arrivals: []workload.ArrivalProcess{workload.NewPoisson(1), nil}},
		"inf process":      {Sites: 1, Duration: 10, Arrivals: []workload.ArrivalProcess{&workload.NHPP{Rates: []float64{inf}, BinWidth: 1}}},
		"nan process":      {Sites: 1, Duration: 10, Arrivals: []workload.ArrivalProcess{&workload.NHPP{Rates: []float64{nan}, BinWidth: 1}}},
		"negative process": {Sites: 1, Duration: 10, Arrivals: []workload.ArrivalProcess{&workload.NHPP{Rates: []float64{-2}, BinWidth: 1}}},
	}
	for name, spec := range cases {
		if spec.Validate() == nil {
			t.Errorf("%s: Validate accepted an invalid spec", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: deriveArrivals accepted an invalid spec", name)
				}
			}()
			deriveArrivals(&spec)
		}()
	}
	// The happy path still derives: default SCV, an explicit one, and
	// arrival processes including an all-zero envelope's rate of 0.
	for _, spec := range []GenSpec{
		{Sites: 2, Duration: 10, PerSiteRate: 5},
		{Sites: 2, Duration: 10, PerSiteRate: 5, ArrivalSCV: 1.2},
		{Sites: 2, Duration: 10, Arrivals: []workload.ArrivalProcess{
			workload.NewPoisson(3), workload.NewNHPP([]float64{0, 0}, 5, false)}},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("valid spec rejected: %v", err)
		}
		if got := deriveArrivals(&spec); len(got) != 2 {
			t.Errorf("valid spec derived %d processes, want 2", len(got))
		}
	}
}
