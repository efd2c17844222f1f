// Package stats provides streaming and batch statistics used throughout
// edgebench: order-free moments, exact quantiles and a mergeable
// log-bucket sketch for bounded ones, binned time series, and
// distribution summaries (box plots).
//
// All types are plain values that are ready to use after zero or
// constructor initialization. None of them are safe for concurrent use;
// callers that share a collector across goroutines must synchronize.
package stats

import (
	"fmt"
	"math"
)

// Stream accumulates the moments of a sequence of observations: their
// count, extremes, and exact sums of x and x² (see sums). Every moment
// is one correctly rounded function of the multiset of observations, so
// any add order or merge tree gives the same bits. Any NaN makes every
// moment NaN, and an infinity makes the mean that infinity (NaN with
// both) and the variance NaN.
//
// The zero value is an empty stream; the sums are allocated at the
// first Add. A copy of a stream shares them, so add to one copy only;
// Merge into an empty stream copies them.
type Stream struct {
	n        int64
	min, max float64
	sums     *sums
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max, s.sums = x, x, &sums{}
	} else {
		s.extend(x, x)
	}
	s.n++
	s.sums.add(x)
}

// extend widens the extremes to lo and hi. On ties it keeps −0 as the
// minimum and +0 as the maximum, so their bits do not depend on order.
func (s *Stream) extend(lo, hi float64) {
	if lo < s.min || lo == s.min && math.Signbit(lo) {
		s.min = lo
	}
	if hi > s.max || hi == s.max && !math.Signbit(hi) {
		s.max = hi
	}
}

// Merge folds other into s, as if every observation of other had been
// added to s.
func (s *Stream) Merge(other *Stream) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		s.sums = other.sums.clone()
		return
	}
	s.n += other.n
	s.extend(other.min, other.max)
	s.sums.merge(other.sums)
}

// Reset returns the stream to its empty state.
func (s *Stream) Reset() { *s = Stream{} }

// N returns the number of observations recorded.
func (s *Stream) N() int64 { return s.n }

// nan reports whether a NaN was recorded.
func (s *Stream) nan() bool { return s.n > 0 && s.sums.wide != nil && s.sums.wide.nan > 0 }

// Mean returns the arithmetic mean, or 0 for an empty stream.
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sums.mean(s.n)
}

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.sums.variance(s.n)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the coefficient of variation (stddev / mean), the quantity
// the paper's Allen–Cunneen analysis squares as c². It returns 0 when the
// mean is 0.
func (s *Stream) CoV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / m
}

// SCV returns the squared coefficient of variation c², used directly in
// Lemma 3.2 of the paper.
func (s *Stream) SCV() float64 {
	c := s.CoV()
	return c * c
}

// Min returns the smallest observation, or 0 for an empty stream.
func (s *Stream) Min() float64 {
	switch {
	case s.n == 0:
		return 0
	case s.nan():
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or 0 for an empty stream.
func (s *Stream) Max() float64 {
	switch {
	case s.n == 0:
		return 0
	case s.nan():
		return math.NaN()
	}
	return s.max
}

// StdErr returns the standard error of the mean.
func (s *Stream) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// ConfidenceInterval95 returns the half-width of the normal-approximation
// 95% confidence interval for the mean.
func (s *Stream) ConfidenceInterval95() float64 {
	return 1.96 * s.StdErr()
}

// String summarizes the stream for debugging.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// RateCounter tracks events over a (simulated or real) time axis and
// reports a rate. It is used to measure utilization and throughput in the
// simulator.
type RateCounter struct {
	events int64
	start  float64
	end    float64
	init   bool
}

// Observe records an event at time t (seconds).
func (r *RateCounter) Observe(t float64) {
	if !r.init {
		r.start, r.end, r.init = t, t, true
	}
	if t > r.end {
		r.end = t
	}
	if t < r.start {
		r.start = t
	}
	r.events++
}

// Events returns the number of observed events.
func (r *RateCounter) Events() int64 { return r.events }

// Rate returns events per second over the observed span, or 0 if the span
// is degenerate.
func (r *RateCounter) Rate() float64 {
	if !r.init || r.end <= r.start {
		return 0
	}
	return float64(r.events) / (r.end - r.start)
}

// TimeWeighted tracks the time-average of a piecewise-constant quantity,
// such as queue length or the number of busy servers. Call Set every time
// the quantity changes; Finish before reading the average.
type TimeWeighted struct {
	value    float64
	lastT    float64
	area     float64
	start    float64
	began    bool
	finished bool
	maxVal   float64
}

// Set records that the tracked quantity changed to v at time t.
func (w *TimeWeighted) Set(t, v float64) {
	if !w.began {
		w.began = true
		w.start = t
		w.lastT = t
		w.value = v
		w.maxVal = v
		return
	}
	if t > w.lastT {
		w.area += w.value * (t - w.lastT)
		w.lastT = t
	}
	w.value = v
	if v > w.maxVal {
		w.maxVal = v
	}
}

// Add adjusts the tracked quantity by delta at time t.
func (w *TimeWeighted) Add(t, delta float64) { w.Set(t, w.value+delta) }

// Finish closes the observation window at time t.
func (w *TimeWeighted) Finish(t float64) {
	if !w.began {
		return
	}
	if t > w.lastT {
		w.area += w.value * (t - w.lastT)
		w.lastT = t
	}
	w.finished = true
}

// Average returns the time average over [start, lastT].
func (w *TimeWeighted) Average() float64 {
	if !w.began || w.lastT <= w.start {
		return 0
	}
	return w.area / (w.lastT - w.start)
}

// Max returns the maximum value observed.
func (w *TimeWeighted) Max() float64 { return w.maxVal }
