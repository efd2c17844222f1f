package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sampleMoments draws n variates and returns the empirical mean and SCV.
func sampleMoments(t *testing.T, d Dist, n int, seed int64) (mean, scv float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := d.Sample(rng)
		if x < 0 {
			t.Fatalf("%s produced negative sample %v", d, x)
		}
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	varc := sumSq/float64(n) - mean*mean
	if mean == 0 {
		return mean, 0
	}
	return mean, varc / (mean * mean)
}

// checkMoments verifies analytic and empirical moments agree.
func checkMoments(t *testing.T, d Dist, wantMean, wantSCV, tol float64) {
	t.Helper()
	if m := d.Mean(); math.Abs(m-wantMean) > 1e-9*(1+wantMean) {
		t.Errorf("%s analytic mean = %v, want %v", d, m, wantMean)
	}
	if s := d.SCV(); math.Abs(s-wantSCV) > 1e-9*(1+wantSCV) {
		t.Errorf("%s analytic SCV = %v, want %v", d, s, wantSCV)
	}
	em, es := sampleMoments(t, d, 200_000, 7)
	if math.Abs(em-wantMean) > tol*(1+wantMean) {
		t.Errorf("%s empirical mean = %v, want %v (tol %v)", d, em, wantMean, tol)
	}
	if math.Abs(es-wantSCV) > 4*tol*(1+wantSCV) {
		t.Errorf("%s empirical SCV = %v, want %v", d, es, wantSCV)
	}
}

func TestDistributionMoments(t *testing.T) {
	cases := []struct {
		name     string
		d        Dist
		mean, sc float64
	}{
		{"Exponential", NewExponential(4), 0.25, 1},
		{"ExponentialMean", NewExponentialMean(0.077), 0.077, 1},
		{"Erlang2", NewErlang(2, 1), 1, 0.5},
		{"Erlang4", NewErlang(4, 2), 2, 0.25},
		{"Erlang10", NewErlang(10, 0.077), 0.077, 0.1},
		{"MixedErlang", FitSCV(1, 0.4), 1, 0.4},
		{"Uniform", NewUniform(1, 3), 2, (4.0 / 12) / 4},
		{"Deterministic", Deterministic{Value: 1.5}, 1.5, 0},
		{"LogNormal", NewLogNormalMeanSCV(0.05, 2), 0.05, 2},
		{"Scaled", Scaled{D: NewExponentialMean(1), Factor: 3}, 3, 1},
		{"Shifted", Shifted{D: NewUniform(0, 2), Offset: 4}, 5, (4.0 / 12) / 25},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkMoments(t, c.d, c.mean, c.sc, 0.02) })
	}
}

func TestFitSCVRoundTrip(t *testing.T) {
	means := []float64{0.01, 0.077, 1, 40}
	scvs := []float64{0, 0.1, 0.25, 0.4, 0.5, 1, 1.7, 4, 10}
	for _, mean := range means {
		for _, scv := range scvs {
			d := FitSCV(mean, scv)
			if m := d.Mean(); math.Abs(m-mean) > 1e-9*mean {
				t.Errorf("FitSCV(%v, %v) = %s: analytic mean %v", mean, scv, d, m)
			}
			if s := d.SCV(); math.Abs(s-scv) > 1e-9*(1+scv) {
				t.Errorf("FitSCV(%v, %v) = %s: analytic SCV %v, want %v", mean, scv, d, s, scv)
			}
			// Measure the fitted distribution by sampling.
			em, es := sampleMoments(t, d, 300_000, 11)
			if math.Abs(em-mean) > 0.03*mean {
				t.Errorf("FitSCV(%v, %v) = %s: empirical mean %v", mean, scv, d, em)
			}
			if math.Abs(es-scv) > 0.12*(1+scv) {
				t.Errorf("FitSCV(%v, %v) = %s: empirical SCV %v", mean, scv, d, es)
			}
		}
	}
}

func TestFitSCVFamilies(t *testing.T) {
	if _, ok := FitSCV(1, 0).(Deterministic); !ok {
		t.Errorf("FitSCV(1, 0) = %T, want Deterministic", FitSCV(1, 0))
	}
	if _, ok := FitSCV(1, 1).(Exponential); !ok {
		t.Errorf("FitSCV(1, 1) = %T, want Exponential", FitSCV(1, 1))
	}
	if d, ok := FitSCV(1, 0.25).(Erlang); !ok || d.K != 4 {
		t.Errorf("FitSCV(1, 0.25) = %v, want Erlang k=4", FitSCV(1, 0.25))
	}
	if _, ok := FitSCV(1, 0.4).(MixedErlang); !ok {
		t.Errorf("FitSCV(1, 0.4) = %T, want MixedErlang", FitSCV(1, 0.4))
	}
	if _, ok := FitSCV(1, 3).(HyperExp2); !ok {
		t.Errorf("FitSCV(1, 3) = %T, want HyperExp2", FitSCV(1, 3))
	}
}

func TestQuantiles(t *testing.T) {
	dists := []Dist{
		NewExponential(2),
		NewErlang(3, 1.5),
		NewUniform(0.5, 2.5),
		NewLogNormalMeanSCV(1, 0.8),
		FitSCV(1, 0.4),
		FitSCV(1, 3),
		Scaled{D: NewExponentialMean(1), Factor: 2},
		Shifted{D: NewExponentialMean(1), Offset: 0.5},
	}
	ps := []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.99}
	for _, d := range dists {
		// Quantiles must be nondecreasing in p.
		prev := math.Inf(-1)
		for _, p := range ps {
			q := d.Quantile(p)
			if q < prev {
				t.Errorf("%s: Quantile(%v) = %v < previous %v", d, p, q, prev)
			}
			prev = q
		}
		// The empirical fraction below Quantile(p) must be close to p.
		rng := rand.New(rand.NewSource(3))
		const n = 100_000
		for _, p := range ps {
			q := d.Quantile(p)
			below := 0
			for i := 0; i < n; i++ {
				if d.Sample(rng) <= q {
					below++
				}
			}
			got := float64(below) / n
			if math.Abs(got-p) > 0.012 {
				t.Errorf("%s: P(X <= Quantile(%v)) = %v", d, p, got)
			}
		}
	}
	// Closed-form checks.
	if q := NewExponential(1).Quantile(0.5); math.Abs(q-math.Ln2) > 1e-12 {
		t.Errorf("Exp(1) median = %v, want ln 2", q)
	}
	if q := NewUniform(2, 4).Quantile(0.25); q != 2.5 {
		t.Errorf("U[2,4] Quantile(0.25) = %v, want 2.5", q)
	}
	if q := (Deterministic{Value: 3}).Quantile(0.9); q != 3 {
		t.Errorf("Det(3) Quantile(0.9) = %v, want 3", q)
	}
}

func TestDeterminismUnderFixedSeed(t *testing.T) {
	dists := []Dist{
		NewExponential(2),
		NewErlang(3, 1),
		NewUniform(0, 1),
		NewLogNormalMeanSCV(1, 2),
		FitSCV(1, 0.4),
		FitSCV(1, 3),
	}
	for _, d := range dists {
		a := rand.New(rand.NewSource(99))
		b := rand.New(rand.NewSource(99))
		for i := 0; i < 1000; i++ {
			if x, y := d.Sample(a), d.Sample(b); x != y {
				t.Fatalf("%s: draw %d diverged under identical seeds: %v vs %v", d, i, x, y)
			}
		}
	}
}

func TestVariance(t *testing.T) {
	d := NewUniform(1, 3)
	want := 4.0 / 12
	if v := Variance(d); math.Abs(v-want) > 1e-12 {
		t.Errorf("Variance(U[1,3]) = %v, want %v", v, want)
	}
}

func TestInvalidParametersPanic(t *testing.T) {
	cases := []func(){
		func() { NewExponential(0) },
		func() { NewExponentialMean(-1) },
		func() { NewErlang(0, 1) },
		func() { NewUniform(2, 1) },
		func() { NewLogNormalMeanSCV(0, 1) },
		func() { FitSCV(-1, 1) },
		func() { FitSCV(1, -0.5) },
		func() { NewExponential(1).Quantile(1.5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestLargeShapeErlang: tiny SCVs produce Erlang shapes in the hundreds
// or thousands; samples must stay finite and positive with the right
// mean, and the log-space CDF must not NaN at large λx.
func TestLargeShapeErlang(t *testing.T) {
	for _, scv := range []float64{0.001, 0.00134} { // Erlang(1000), MixedErlang(747)
		d := FitSCV(1, scv)
		rng := rand.New(rand.NewSource(5))
		var sum float64
		for i := 0; i < 2000; i++ {
			x := d.Sample(rng)
			if math.IsInf(x, 0) || math.IsNaN(x) || x <= 0 {
				t.Fatalf("%s sample %d = %v", d, i, x)
			}
			sum += x
		}
		if mean := sum / 2000; math.Abs(mean-1) > 0.01 {
			t.Errorf("%s empirical mean %v, want 1", d, mean)
		}
	}

	e := NewErlang(1000, 1)
	if c := e.CDF(1); math.IsNaN(c) || c < 0.45 || c > 0.55 {
		t.Errorf("Erlang(1000).CDF(1) = %v, want ≈ 0.5", c)
	}
	if q := e.Quantile(0.5); math.Abs(q-1) > 0.01 {
		t.Errorf("Erlang(1000) median = %v, want ≈ 1", q)
	}
}

// TestErlangSamplerKS checks the Erlang and mixed-Erlang samplers
// against their own CDFs with a one-sample Kolmogorov–Smirnov test at
// α = 0.001 (critical value 1.95/√n). The shapes span the k = 1
// exponential path and small, mid and large gamma shapes; the SCVs
// cover the Erlang-10 and mixed-Erlang fits the paper's workloads use.
func TestErlangSamplerKS(t *testing.T) {
	type cdfDist interface {
		Dist
		CDF(x float64) float64
	}
	type ksCase struct {
		name string
		d    cdfDist
	}
	var cases []ksCase
	for _, k := range []int{1, 2, 3, 10, 64, 65, 200} {
		cases = append(cases, ksCase{fmt.Sprintf("Erlang%d", k), NewErlang(k, 1)})
	}
	for _, scv := range []float64{0.1, 0.3, 0.4, 0.7} {
		cases = append(cases, ksCase{fmt.Sprintf("FitSCV%g", scv), FitSCV(1, scv).(cdfDist)})
	}
	const n = 50_000
	crit := 1.95 / math.Sqrt(n)
	for i, c := range cases {
		d := c.d
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = d.Sample(rng)
			}
			sort.Float64s(xs)
			var ks float64
			for j, x := range xs {
				f := d.CDF(x)
				ks = math.Max(ks, math.Max(float64(j+1)/n-f, f-float64(j)/n))
			}
			if ks > crit {
				t.Errorf("%s: KS distance %.5f exceeds the α = 0.001 critical value %.5f", d, ks, crit)
			}
		})
	}
}

func BenchmarkErlangSample(b *testing.B) {
	for _, k := range []int{2, 3, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := NewErlang(k, 1)
			rng := rand.New(rand.NewSource(1))
			for b.Loop() {
				d.Sample(rng)
			}
		})
	}
}
