package workload

import (
	"fmt"
	"math"
)

// Partitioner assigns a spatial weight to each of k edge sites; weights
// sum to 1. The paper studies uniform splits (§3.1) and skewed splits
// (§3.2, Figure 2).
type Partitioner interface {
	// Weights returns the per-site load fractions at time t (seconds),
	// allowing time-varying skew.
	Weights(t float64) []float64
	// Sites returns k.
	Sites() int
	// String describes the partitioner.
	String() string
}

// Uniform splits load equally: w_i = 1/k.
type Uniform struct{ K int }

// Weights returns k equal weights.
func (u Uniform) Weights(float64) []float64 {
	w := make([]float64, u.K)
	for i := range w {
		w[i] = 1 / float64(u.K)
	}
	return w
}

// Sites returns k.
func (u Uniform) Sites() int { return u.K }

func (u Uniform) String() string { return fmt.Sprintf("Uniform(k=%d)", u.K) }

// Static uses fixed arbitrary weights.
type Static struct{ W []float64 }

// NewStatic normalizes the given weights to sum to 1.
func NewStatic(weights []float64) Static {
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("workload: negative partition weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("workload: partition weights sum to zero")
	}
	out := make([]float64, len(weights))
	for i, w := range weights {
		out[i] = w / sum
	}
	return Static{W: out}
}

// Weights returns the fixed weights.
func (s Static) Weights(float64) []float64 { return append([]float64(nil), s.W...) }

// Sites returns the number of sites.
func (s Static) Sites() int { return len(s.W) }

func (s Static) String() string { return fmt.Sprintf("Static(k=%d)", len(s.W)) }

// Zipf splits load by a Zipf law: w_i ∝ 1/(i+1)^S. S=0 is uniform;
// larger S concentrates more load on the first sites, reproducing the
// heavy spatial skew of Figure 2.
func Zipf(k int, s float64) Static {
	if k <= 0 || s < 0 {
		panic("workload: Zipf needs k>0, s>=0")
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return NewStatic(w)
}
