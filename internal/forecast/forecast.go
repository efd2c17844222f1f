// Package forecast provides the short-horizon workload predictors behind
// predictive edge capacity allocation. The paper's dynamic-allocation
// takeaway (§3.2) and future work (§7) require anticipating per-site
// rate changes; the cited workload-characterization literature ([13],
// [36]) uses exactly these model families: moving averages, exponential
// smoothing, and trend-aware (Holt) smoothing.
//
// All forecasters consume a regularly sampled series (one observation
// per control interval) and predict the next value; they are evaluated
// by the predictive autoscaler ablation.
package forecast

import "fmt"

// Forecaster predicts the next value of a regularly sampled series.
type Forecaster interface {
	// Observe feeds the latest sample.
	Observe(x float64)
	// Predict returns the forecast for the next sample. Before any
	// observation it returns 0.
	Predict() float64
	// Name identifies the model.
	Name() string
}

// Naive predicts the last observed value (the persistence model — the
// baseline every forecaster must beat).
type Naive struct {
	last float64
	seen bool
}

// Observe records the sample.
func (n *Naive) Observe(x float64) { n.last, n.seen = x, true }

// Predict returns the last sample.
func (n *Naive) Predict() float64 { return n.last }

// Name returns "naive".
func (n *Naive) Name() string { return "naive" }

// SMA is a simple moving average over a fixed window.
type SMA struct {
	window []float64
	size   int
	idx    int
	filled bool
}

// NewSMA returns a moving-average forecaster over n samples.
func NewSMA(n int) *SMA {
	if n <= 0 {
		panic(fmt.Sprintf("forecast: SMA window %d must be positive", n))
	}
	return &SMA{window: make([]float64, n), size: n}
}

// Observe records the sample.
func (s *SMA) Observe(x float64) {
	s.window[s.idx] = x
	s.idx++
	if s.idx == s.size {
		s.idx = 0
		s.filled = true
	}
}

// Predict returns the window mean.
func (s *SMA) Predict() float64 {
	n := s.size
	if !s.filled {
		n = s.idx
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.window[i]
	}
	return sum / float64(n)
}

// Name returns "sma".
func (s *SMA) Name() string { return fmt.Sprintf("sma-%d", s.size) }

// EWMA is exponentially weighted moving average with smoothing factor
// alpha in (0, 1]; larger alpha reacts faster.
type EWMA struct {
	Alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an EWMA forecaster.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("forecast: EWMA alpha %v outside (0,1]", alpha))
	}
	return &EWMA{Alpha: alpha}
}

// Observe records the sample.
func (e *EWMA) Observe(x float64) {
	if !e.seen {
		e.value, e.seen = x, true
		return
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
}

// Predict returns the smoothed value.
func (e *EWMA) Predict() float64 { return e.value }

// Name returns "ewma".
func (e *EWMA) Name() string { return fmt.Sprintf("ewma-%.2g", e.Alpha) }

// Holt is double exponential smoothing (level + trend), able to
// anticipate ramping workloads that EWMA lags.
type Holt struct {
	Alpha, Beta  float64
	level, trend float64
	n            int
	prev         float64
}

// NewHolt returns a Holt linear forecaster.
func NewHolt(alpha, beta float64) *Holt {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		panic(fmt.Sprintf("forecast: Holt alpha=%v beta=%v outside (0,1]", alpha, beta))
	}
	return &Holt{Alpha: alpha, Beta: beta}
}

// Observe records the sample.
func (h *Holt) Observe(x float64) {
	switch h.n {
	case 0:
		h.level = x
	case 1:
		h.trend = x - h.prev
		h.level = x
	default:
		prevLevel := h.level
		h.level = h.Alpha*x + (1-h.Alpha)*(h.level+h.trend)
		h.trend = h.Beta*(h.level-prevLevel) + (1-h.Beta)*h.trend
	}
	h.prev = x
	h.n++
}

// Predict returns level + trend (one step ahead).
func (h *Holt) Predict() float64 {
	if h.n == 0 {
		return 0
	}
	return h.level + h.trend
}

// Name returns "holt".
func (h *Holt) Name() string { return fmt.Sprintf("holt-%.2g-%.2g", h.Alpha, h.Beta) }

// WindowMax predicts the maximum over the recent window — the
// peak-provisioning forecaster matching the paper's §5.2 argument that
// capacity must cover peaks, not means.
type WindowMax struct {
	window []float64
	size   int
	idx    int
	filled bool
}

// NewWindowMax returns a max-over-window forecaster.
func NewWindowMax(n int) *WindowMax {
	if n <= 0 {
		panic(fmt.Sprintf("forecast: WindowMax window %d must be positive", n))
	}
	return &WindowMax{window: make([]float64, n), size: n}
}

// Observe records the sample.
func (w *WindowMax) Observe(x float64) {
	w.window[w.idx] = x
	w.idx++
	if w.idx == w.size {
		w.idx = 0
		w.filled = true
	}
}

// Predict returns the window maximum.
func (w *WindowMax) Predict() float64 {
	n := w.size
	if !w.filled {
		n = w.idx
	}
	var max float64
	for i := 0; i < n; i++ {
		if w.window[i] > max {
			max = w.window[i]
		}
	}
	return max
}

// Name returns "window-max".
func (w *WindowMax) Name() string { return fmt.Sprintf("winmax-%d", w.size) }
