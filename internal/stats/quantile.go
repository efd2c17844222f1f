package stats

import (
	"math"
	"sort"
)

// Sample collects observations for exact quantile computation. For the
// experiment sizes used in edgebench (10⁴–10⁶ latencies) exact quantiles
// are affordable and avoid approximation error in tail-latency figures.
// The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with capacity pre-allocated for n values.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll records a batch of observations.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// Merge folds the observations of other into s.
func (s *Sample) Merge(other *Sample) {
	s.xs = append(s.xs, other.xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the observations sorted ascending. The returned slice is
// owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return s.xs
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s.xs[0]
	}
	if q <= 0 {
		s.ensureSorted()
		return s.xs[0]
	}
	if q >= 1 {
		s.ensureSorted()
		return s.xs[n-1]
	}
	s.ensureSorted()
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s.xs[n-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Mean returns the arithmetic mean of the sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var m2 float64
	for _, x := range s.xs {
		d := x - m
		m2 += d * d
	}
	return math.Sqrt(m2 / float64(n-1))
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P95 returns the 95th percentile, the paper's tail-latency metric.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Reset discards all observations, keeping the backing array.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = true
}
