package workload

// This suite pins the distribution of the NHPP sampler over a
// piecewise-constant envelope: conditioned on the count, NHPP arrival
// times are iid with CDF Λ(t)/Λ(D), so a one-sample Kolmogorov–Smirnov
// test against the envelope's cumulative rate checks the whole temporal
// profile at once, and mean counts must match the envelope integral.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// ksEnvelope is a spiky profile (peak/mean ≈ 20), the regime of the
// Azure envelopes, and exactly where a broken segment restart would
// distort the distribution most visibly.
var ksEnvelope = []float64{0.5, 0.5, 12, 0.5, 0, 3, 0.5, 8, 0.5, 0.5}

const ksBinWidth = 10.0

func ksNHPP() *NHPP { return NewNHPP(ksEnvelope, ksBinWidth, false) }

// cumulativeRate evaluates Λ(t) = ∫₀ᵗ λ(s) ds for the envelope.
func cumulativeRate(rates []float64, width, t float64) float64 {
	var cum float64
	for i, r := range rates {
		lo, hi := float64(i)*width, float64(i+1)*width
		if t <= lo {
			break
		}
		if t < hi {
			cum += r * (t - lo)
			break
		}
		cum += r * width
	}
	return cum
}

// collectArrivals pools arrival times over [0, horizon) across
// replications with independent streams. Conditioned on each
// replication's count the times are iid draws from Λ(t)/Λ(horizon), so
// the pool stays a valid KS sample.
func collectArrivals(t *testing.T, mk func() *NHPP, horizon float64, reps int, seed int64) []float64 {
	t.Helper()
	var all []float64
	for rep := 0; rep < reps; rep++ {
		p := mk()
		rng := rand.New(rand.NewSource(seed + int64(rep)))
		tt := 0.0
		for {
			next, ok := p.Next(tt, rng)
			if !ok || next >= horizon {
				break
			}
			if next <= tt {
				t.Fatalf("rep %d: arrival %v does not advance past %v", rep, next, tt)
			}
			tt = next
			all = append(all, next)
		}
	}
	if len(all) == 0 {
		t.Fatal("no arrivals collected; test is vacuous")
	}
	return all
}

// ksStatistic computes the one-sample KS distance of the samples
// against the envelope CDF Λ(t)/Λ(horizon).
func ksStatistic(samples []float64, rates []float64, width, horizon float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	total := cumulativeRate(rates, width, horizon)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := cumulativeRate(rates, width, x) / total
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// TestNHPPPiecewiseKSAgainstEnvelope: the sampler passes a KS test
// against the envelope's cumulative-rate CDF. The threshold
// 1.95/√n corresponds to α ≈ 0.001 — conservative enough to be stable
// across seeds, tight enough that assigning arrivals to a neighboring
// bin or skipping the memoryless restart fails it immediately.
func TestNHPPPiecewiseKSAgainstEnvelope(t *testing.T) {
	t.Run("piecewise", func(t *testing.T) {
		horizon := float64(len(ksEnvelope)) * ksBinWidth
		samples := collectArrivals(t, ksNHPP, horizon, 40, 1000)
		d := ksStatistic(samples, ksEnvelope, ksBinWidth, horizon)
		if crit := 1.95 / math.Sqrt(float64(len(samples))); d > crit {
			t.Errorf("KS distance %.4f exceeds %.4f (n=%d)", d, crit, len(samples))
		}
	})
}

// TestNHPPPiecewiseMeanCount: the mean arrival count matches the
// envelope integral Λ(D) within sampling error.
func TestNHPPPiecewiseMeanCount(t *testing.T) {
	horizon := float64(len(ksEnvelope)) * ksBinWidth
	want := cumulativeRate(ksEnvelope, ksBinWidth, horizon)
	const reps = 60
	got := float64(len(collectArrivals(t, ksNHPP, horizon, reps, 2000))) / reps
	// Poisson(Λ) mean has sd √(Λ/reps); 4σ keeps seeds stable.
	if tol := 4 * math.Sqrt(want/reps); math.Abs(got-want) > tol {
		t.Errorf("mean count %.1f, envelope integral %.1f (tol %.1f)", got, want, tol)
	}
}

// TestNHPPPiecewiseZeroBins: no arrival may land in a zero-rate bin,
// and an all-zero envelope exhausts immediately.
func TestNHPPPiecewiseZeroBins(t *testing.T) {
	p := NewNHPP([]float64{6, 0, 6}, 10, false)
	rng := rand.New(rand.NewSource(11))
	tt := 0.0
	for {
		next, ok := p.Next(tt, rng)
		if !ok {
			break
		}
		if next >= 10 && next < 20 {
			t.Fatalf("arrival at %v inside the zero-rate bin", next)
		}
		if next > 30 {
			t.Fatalf("arrival at %v past the envelope end", next)
		}
		tt = next
	}

	z := NewNHPP([]float64{0, 0}, 10, false)
	if _, ok := z.Next(0, rng); ok {
		t.Error("all-zero envelope should produce no arrivals")
	}
}

// TestNHPPPiecewiseCycle: a cycling envelope with a zero-rate bin keeps
// producing strictly increasing arrivals past the envelope end, and its
// per-cycle count stays near the envelope integral.
func TestNHPPPiecewiseCycle(t *testing.T) {
	p := NewNHPP([]float64{5, 0}, 10, true)
	rng := rand.New(rand.NewSource(12))
	tt, n := 0.0, 0
	const cycles = 200
	for tt < 20*cycles {
		next, ok := p.Next(tt, rng)
		if !ok {
			t.Fatal("cycling NHPP should never exhaust")
		}
		if next <= tt {
			t.Fatalf("arrival %v does not advance past %v", next, tt)
		}
		if m := math.Mod(next, 20); m >= 10 {
			t.Fatalf("arrival at %v (phase %v) inside the zero-rate half-cycle", next, m)
		}
		tt = next
		n++
	}
	perCycle := float64(n) / cycles
	if math.Abs(perCycle-50) > 3 {
		t.Errorf("%.1f arrivals per cycle, want ~50", perCycle)
	}
}

// TestNHPPPiecewiseDeterministic: same seed, same sequence — the
// reproducibility contract every arrival process carries.
func TestNHPPPiecewiseDeterministic(t *testing.T) {
	seq := func(seed int64) []float64 {
		p := ksNHPP()
		rng := rand.New(rand.NewSource(seed))
		var out []float64
		tt := 0.0
		for {
			next, ok := p.Next(tt, rng)
			if !ok {
				break
			}
			tt = next
			out = append(out, next)
		}
		return out
	}
	a, b := seq(9), seq(9)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("replays differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestNHPPPiecewiseFarFuture: Next called with t deep inside a later
// cycle locates the right segment (the base-offset arithmetic) instead
// of scanning from zero or misplacing the phase.
func TestNHPPPiecewiseFarFuture(t *testing.T) {
	p := NewNHPP([]float64{5, 0}, 10, true)
	rng := rand.New(rand.NewSource(13))
	start := 1e6*20 + 3 // inside the active half of cycle 10⁶
	next, ok := p.Next(start, rng)
	if !ok {
		t.Fatal("cycling envelope exhausted")
	}
	if next <= start {
		t.Fatalf("arrival %v does not advance past %v", next, start)
	}
	if m := math.Mod(next, 20); m >= 10 {
		t.Fatalf("arrival at phase %v inside the zero-rate half-cycle", m)
	}
}
