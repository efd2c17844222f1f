// Package workload generates arrival processes and spatial partitions.
// It covers the paper's synthetic workloads (open-loop Poisson and
// general renewal arrivals at controlled rates, §4.2) and its
// trace-driven workloads (per-site rate envelopes with temporal and
// spatial skews, §4.5), plus the partitioners used to split an aggregate
// load across edge sites.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
)

// ArrivalProcess produces a monotone sequence of arrival times.
type ArrivalProcess interface {
	// Next returns the next arrival time after t, or ok=false when the
	// process is exhausted.
	Next(t float64, rng *rand.Rand) (next float64, ok bool)
	// Rate returns the nominal long-run arrival rate in req/s (0 if
	// undefined).
	Rate() float64
	// String describes the process.
	String() string
}

// Renewal is a renewal arrival process with the given inter-arrival
// distribution. With an exponential inter-arrival it is a Poisson
// process; with Erlang inter-arrivals it models the paced request
// streams produced by fixed-rate load generators.
type Renewal struct {
	Inter dist.Dist
}

// NewPoisson returns a Poisson arrival process at rate req/s.
func NewPoisson(rate float64) Renewal {
	return Renewal{Inter: dist.NewExponential(rate)}
}

// NewPaced returns a renewal process with Erlang-k inter-arrivals (SCV
// 1/k) at the given rate, modeling a load generator that spaces requests
// more regularly than Poisson, as Gatling's constant-rate injector does.
func NewPaced(rate float64, k int) Renewal {
	return Renewal{Inter: dist.NewErlang(k, 1/rate)}
}

// NewRenewal wraps an arbitrary inter-arrival distribution.
func NewRenewal(inter dist.Dist) Renewal { return Renewal{Inter: inter} }

// Next draws the next arrival.
func (r Renewal) Next(t float64, rng *rand.Rand) (float64, bool) {
	return t + r.Inter.Sample(rng), true
}

// Rate returns 1/E[inter-arrival].
func (r Renewal) Rate() float64 {
	m := r.Inter.Mean()
	if m <= 0 {
		return 0
	}
	return 1 / m
}

func (r Renewal) String() string { return fmt.Sprintf("Renewal(%s)", r.Inter) }

// SCV returns the squared CoV of the inter-arrival times.
func (r Renewal) SCV() float64 { return r.Inter.SCV() }

// MMPP is a two-state Markov-modulated Poisson process: it alternates
// between a low-rate and a high-rate Poisson regime with exponentially
// distributed sojourns, producing the bursty arrivals of Corollary 3.2.1.
// All draws flow through dist.Dist so the process shares the simulator's
// stochastic substrate.
type MMPP struct {
	RateLow, RateHigh float64
	MeanLow, MeanHigh float64 // mean sojourn in each state, seconds
	sojourn           [2]dist.Dist
	gap               [2]dist.Dist // nil where the regime rate is 0
	state             int          // 0 = low, 1 = high
	stateUntil        float64
	initialized       bool
}

// NewMMPP returns a two-state MMPP.
func NewMMPP(rateLow, rateHigh, meanLow, meanHigh float64) *MMPP {
	if rateLow < 0 || rateHigh <= 0 || meanLow <= 0 || meanHigh <= 0 {
		panic("workload: invalid MMPP parameters")
	}
	m := &MMPP{RateLow: rateLow, RateHigh: rateHigh, MeanLow: meanLow, MeanHigh: meanHigh}
	m.sojourn = [2]dist.Dist{dist.NewExponentialMean(meanLow), dist.NewExponentialMean(meanHigh)}
	if rateLow > 0 {
		m.gap[0] = dist.NewExponential(rateLow)
	}
	m.gap[1] = dist.NewExponential(rateHigh)
	return m
}

// Next draws the next arrival, advancing regime switches as needed.
func (m *MMPP) Next(t float64, rng *rand.Rand) (float64, bool) {
	if !m.initialized {
		if m.sojourn[0] == nil {
			// Constructed as a struct literal rather than via NewMMPP:
			// derive the sampling dists from the parameter fields
			// (invalid parameters panic in the dist constructors).
			m.sojourn = [2]dist.Dist{dist.NewExponentialMean(m.MeanLow), dist.NewExponentialMean(m.MeanHigh)}
			if m.RateLow > 0 {
				m.gap[0] = dist.NewExponential(m.RateLow)
			}
			m.gap[1] = dist.NewExponential(m.RateHigh)
		}
		m.state = 0
		m.stateUntil = t + m.sojourn[0].Sample(rng)
		m.initialized = true
	}
	for {
		var candidate float64
		if g := m.gap[m.state]; g != nil {
			candidate = t + g.Sample(rng)
		} else {
			candidate = math.Inf(1)
		}
		if candidate <= m.stateUntil {
			return candidate, true
		}
		// Regime switch before the candidate arrival: restart the clock
		// at the switch time (memorylessness makes this exact).
		t = m.stateUntil
		m.state = 1 - m.state
		m.stateUntil = t + m.sojourn[m.state].Sample(rng)
	}
}

// Rate returns the long-run average rate weighted by state occupancy.
func (m *MMPP) Rate() float64 {
	tot := m.MeanLow + m.MeanHigh
	return (m.RateLow*m.MeanLow + m.RateHigh*m.MeanHigh) / tot
}

func (m *MMPP) String() string {
	return fmt.Sprintf("MMPP(low=%g@%gs, high=%g@%gs)", m.RateLow, m.MeanLow, m.RateHigh, m.MeanHigh)
}

// NHPP is a nonhomogeneous Poisson process driven by a piecewise-constant
// rate envelope (rate[i] applies on [i·BinWidth, (i+1)·BinWidth)). It
// replays trace-derived request-rate series such as the Azure per-minute
// invocation counts. The process is exhausted after the envelope ends
// unless Cycle is true.
type NHPP struct {
	Rates    []float64
	BinWidth float64
	Cycle    bool
	active   bool // some bin has a positive rate
}

// NewNHPP builds a nonhomogeneous Poisson process from a rate envelope.
// It panics on an empty envelope, a non-positive bin width, or a bin
// whose rate is negative, NaN or infinite.
func NewNHPP(rates []float64, binWidth float64, cycle bool) *NHPP {
	if len(rates) == 0 || binWidth <= 0 {
		panic("workload: NHPP needs a non-empty envelope and positive bin width")
	}
	p := &NHPP{Rates: append([]float64(nil), rates...), BinWidth: binWidth, Cycle: cycle}
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			panic("workload: negative or non-finite rate in NHPP envelope")
		}
		p.active = p.active || r > 0
	}
	return p
}

// Duration returns the envelope's span in seconds.
func (p *NHPP) Duration() float64 { return float64(len(p.Rates)) * p.BinWidth }

// exp1 is the unit exponential every segment draw rescales —
// stateless, so one package value serves all goroutines.
var exp1 = dist.NewExponential(1)

// Next simulates the envelope exactly, segment by segment: in a bin of
// rate r the gap to the next arrival is Exp(r); when the gap overshoots
// the bin boundary the clock restarts at the boundary (memorylessness
// makes the restart exact, the same argument MMPP's regime switches
// use), and zero-rate bins are skipped outright. That costs one draw
// per arrival plus one per crossed bin. Next mutates nothing, so one
// process may be read from any goroutine.
func (p *NHPP) Next(t float64, rng *rand.Rand) (float64, bool) {
	if !p.active {
		return 0, false
	}
	if t < 0 {
		t = 0
	}
	d := p.Duration()
	for i := 0; i < 1_000_000; i++ {
		// Locate t's bin: phase within the (possibly cycled) envelope,
		// plus the absolute offset of the cycle it falls in.
		phase, base := t, 0.0
		if phase >= d {
			if !p.Cycle {
				return 0, false
			}
			base = math.Floor(phase/d) * d
			phase -= base
			if phase >= d { // float fuzz at an exact multiple of d
				base += d
				phase = 0
			}
		}
		idx := int(phase / p.BinWidth)
		if idx >= len(p.Rates) {
			idx = len(p.Rates) - 1
		}
		segEnd := base + float64(idx+1)*p.BinWidth
		if segEnd <= t {
			// Rounding pinned t at (or past) its own bin's end; nudge
			// forward so the loop always makes progress.
			t = math.Nextafter(t, math.Inf(1))
			continue
		}
		if r := p.Rates[idx]; r > 0 {
			if next := t + exp1.Sample(rng)/r; next < segEnd {
				return next, true
			}
		}
		t = segEnd
	}
	return 0, false
}

// Rate returns the envelope's time-average rate.
func (p *NHPP) Rate() float64 {
	var sum float64
	for _, r := range p.Rates {
		sum += r
	}
	return sum / float64(len(p.Rates))
}

func (p *NHPP) String() string {
	return fmt.Sprintf("NHPP(bins=%d, width=%gs, mean=%.2f req/s)", len(p.Rates), p.BinWidth, p.Rate())
}
