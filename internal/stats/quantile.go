package stats

import (
	"math"
	"sort"
)

// Sample collects observations for exact quantile computation. For the
// experiment sizes used in edgebench (10⁴–10⁶ latencies) exact quantiles
// are affordable and avoid approximation error in tail-latency figures.
// The zero value is ready to use.
//
// Add writes into fixed blocks that never regrow: they double from
// firstBlock values up to blockCap, and a full block is kept, not
// copied, so a sample of N values allocates 8·N bytes plus one partly
// filled block. The first Values or Quantile read folds the blocks into
// one slice in insertion order, once, and sorts it in place; Mean and
// StdDev walk the blocks as they are. Merge copies another sample's
// blocks without folding it.
type Sample struct {
	xs     []float64   // the open block; after a fold, every value
	full   [][]float64 // filled blocks before xs, in insertion order
	sorted bool        // xs is sorted and full is empty
}

// Block sizes, in values: the first block a Sample allocates, and the
// size at which doubling stops. 4096 values are 32 KB, the largest block
// the allocator serves from its per-CPU caches, and they bound the
// unused tail of a collector's open block.
const (
	firstBlock = 8
	blockCap   = 4096
)

// NewSample returns a Sample whose first block holds n values.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sample) Add(x float64) {
	if len(s.xs) == cap(s.xs) {
		s.grow()
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// grow files the full open block and opens the next one.
func (s *Sample) grow() {
	if cap(s.xs) > 0 {
		s.full = append(s.full, s.xs)
	}
	s.xs = make([]float64, 0, min(max(2*cap(s.xs), firstBlock), blockCap))
}

// AddAll records a batch of observations.
func (s *Sample) AddAll(xs []float64) {
	for len(xs) > 0 {
		if len(s.xs) == cap(s.xs) {
			s.grow()
		}
		k := min(len(xs), cap(s.xs)-len(s.xs))
		s.xs = append(s.xs, xs[:k]...)
		xs = xs[k:]
	}
	s.sorted = false
}

// Merge appends the observations of other to s, copying other's blocks
// as they are: other is neither folded nor changed.
func (s *Sample) Merge(other *Sample) {
	full, xs := other.full, other.xs // read before s grows: other may be s
	for _, b := range full {
		s.AddAll(b)
	}
	s.AddAll(xs)
}

// N returns the number of observations.
func (s *Sample) N() int {
	n := len(s.xs)
	for _, b := range s.full {
		n += len(b)
	}
	return n
}

// fold gathers the blocks into the one slice every read uses, keeping
// insertion order, and returns it.
func (s *Sample) fold() []float64 {
	if s.full != nil {
		xs := make([]float64, 0, s.N())
		for _, b := range s.full {
			xs = append(xs, b...)
		}
		s.xs = append(xs, s.xs...)
		s.full = nil
	}
	return s.xs
}

// Values returns the observations sorted ascending. The returned slice is
// owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 {
	xs := s.fold()
	if !s.sorted {
		sort.Float64s(xs)
		canonicalize(xs)
		s.sorted = true
	}
	return xs
}

// canonicalize fixes what sort.Float64s leaves to the input order in
// sorted xs: every NaN, sorted first, becomes the one math.NaN, and
// every −0 goes before every +0. The sorted values, and so every
// quantile, then depend only on the multiset.
func canonicalize(xs []float64) {
	i := 0
	for ; i < len(xs) && xs[i] != xs[i]; i++ {
		xs[i] = math.NaN()
	}
	lo := i + sort.SearchFloat64s(xs[i:], 0)
	hi, neg := lo, lo
	for ; hi < len(xs) && xs[hi] == 0; hi++ {
		if math.Signbit(xs[hi]) {
			neg++
		}
	}
	if neg == lo {
		return
	}
	for k := lo; k < hi; k++ {
		xs[k] = 0
		if k < neg {
			xs[k] = math.Copysign(0, -1)
		}
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	xs := s.Values()
	n := len(xs)
	switch {
	case n == 0:
		return 0
	case n == 1 || q <= 0:
		return xs[0]
	case q >= 1:
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return xs[n-1]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// Mean returns the arithmetic mean of the sample, as a Stream fed the
// same values would.
func (s *Sample) Mean() float64 {
	m := s.moments()
	return m.Mean()
}

// StdDev returns the sample standard deviation, as a Stream fed the
// same values would.
func (s *Sample) StdDev() float64 {
	m := s.moments()
	return m.StdDev()
}

// moments returns the moments of the sample's values, walking its
// blocks in place: it neither folds nor copies them.
func (s *Sample) moments() Stream {
	var m Stream
	for _, b := range s.full {
		for _, x := range b {
			m.Add(x)
		}
	}
	for _, x := range s.xs {
		m.Add(x)
	}
	return m
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P95 returns the 95th percentile, the paper's tail-latency metric.
func (s *Sample) P95() float64 { return s.Quantile(0.95) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Reset discards all observations, keeping the open block.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.full = nil
	s.sorted = true
}
