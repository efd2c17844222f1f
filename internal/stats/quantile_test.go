package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleQuantileKnown(t *testing.T) {
	s := NewSample(5)
	for _, x := range []float64{10, 20, 30, 40, 50} {
		s.Add(x)
	}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleQuantileInterpolation(t *testing.T) {
	s := NewSample(2)
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); !almostEqual(got, 5, 1e-12) {
		t.Errorf("median of {0,10} = %v, want 5", got)
	}
	if got := s.Quantile(0.95); !almostEqual(got, 9.5, 1e-12) {
		t.Errorf("p95 of {0,10} = %v, want 9.5", got)
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Error("empty sample should report zeros")
	}
	s.Add(42)
	if s.Quantile(0.01) != 42 || s.Quantile(0.99) != 42 || s.Median() != 42 {
		t.Error("single-value quantiles should equal the value")
	}
}

// TestSampleQuantileMonotone: quantiles are non-decreasing in q.
func TestSampleQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSample(0)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Add(rng.NormFloat64())
		}
		prev := s.Quantile(0)
		for q := 0.05; q <= 1.0; q += 0.05 {
			cur := s.Quantile(q)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSampleQuantileBounds: quantiles stay within [min, max].
func TestSampleQuantileBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		s := NewSample(len(xs))
		s.AddAll(xs)
		lo, hi := s.Quantile(0), s.Quantile(1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < lo || v > hi {
				return false
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return lo == sorted[0] && hi == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleMergeAndReset(t *testing.T) {
	a, b := NewSample(2), NewSample(2)
	a.AddAll([]float64{1, 3})
	b.AddAll([]float64{2, 4})
	a.Merge(b)
	if a.N() != 4 {
		t.Fatalf("merged N = %d, want 4", a.N())
	}
	if got := a.Median(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("merged median = %v, want 2.5", got)
	}
	a.Reset()
	if a.N() != 0 {
		t.Error("Reset did not clear sample")
	}
}

func TestSampleStdDev(t *testing.T) {
	s := NewSample(4)
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Known dataset: population sd = 2, sample sd = 2.138...
	if got := s.StdDev(); !almostEqual(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %v, want 2.13809", got)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
}
