// Package dist is the simulator's single stochastic substrate: every
// random variate drawn anywhere in the repro — inter-arrival gaps,
// service demands, network round-trips, trace noise — comes from a
// dist.Dist sampled against a seeded *rand.Rand stream built by
// NewRand, so whole experiments replay bit-identically from a seed.
//
// The package provides the classical nonnegative families the paper's
// G/G/k analysis (§3) works with — exponential, Erlang, uniform,
// deterministic, lognormal — plus Scaled/Shifted combinators and FitSCV,
// which fits a distribution to a target mean and squared coefficient of
// variation (the paper's variability knob).
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a random variate with known first and second moments.
type Dist interface {
	// Sample draws one variate using the given stream.
	Sample(rng *rand.Rand) float64
	// Mean returns the expected value.
	Mean() float64
	// SCV returns the squared coefficient of variation Var/Mean².
	SCV() float64
	// Quantile returns the p-quantile, p in [0, 1].
	Quantile(p float64) float64
	// String describes the distribution.
	String() string
}

// Variance returns the variance of d, derived from its mean and SCV.
func Variance(d Dist) float64 {
	m := d.Mean()
	return d.SCV() * m * m
}

// checkP panics on a quantile probability outside [0, 1].
func checkP(p float64) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("dist: quantile probability %v outside [0,1]", p))
	}
}

// Exponential is the exponential distribution with the given rate
// (mean 1/Rate, SCV 1).
type Exponential struct {
	Rate float64
}

// NewExponential returns an exponential distribution with the given rate
// in events per second.
func NewExponential(rate float64) Exponential {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: exponential rate %v must be positive", rate))
	}
	return Exponential{Rate: rate}
}

// NewExponentialMean returns an exponential distribution with the given
// mean.
func NewExponentialMean(mean float64) Exponential {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: exponential mean %v must be positive", mean))
	}
	return Exponential{Rate: 1 / mean}
}

// Sample draws an exponential variate.
func (d Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() / d.Rate }

// Mean returns 1/rate.
func (d Exponential) Mean() float64 { return 1 / d.Rate }

// SCV of the exponential is 1.
func (d Exponential) SCV() float64 { return 1 }

// Quantile returns -ln(1-p)/rate.
func (d Exponential) Quantile(p float64) float64 {
	checkP(p)
	if p == 1 {
		return math.Inf(1)
	}
	return -math.Log1p(-p) / d.Rate
}

func (d Exponential) String() string { return fmt.Sprintf("Exp(mean=%.4g)", 1/d.Rate) }

// Erlang is the Erlang-k distribution: the sum of K independent
// exponentials. Its SCV is 1/K, making it the paper's low-variability
// inter-arrival model (paced load generators).
type Erlang struct {
	K    int
	Rate float64 // rate of each exponential phase
}

// NewErlang returns an Erlang-k distribution with the given overall mean
// (each phase has mean mean/k).
func NewErlang(k int, mean float64) Erlang {
	if k <= 0 || mean <= 0 {
		panic(fmt.Sprintf("dist: Erlang k=%d mean=%v invalid", k, mean))
	}
	return Erlang{K: k, Rate: float64(k) / mean}
}

// Sample draws an Erlang variate.
func (d Erlang) Sample(rng *rand.Rand) float64 { return erlangSample(d.K, d.Rate, rng) }

// erlangSample draws a sum of k exponentials at the given phase rate in
// O(1) for every shape: one exponential for k = 1, otherwise one
// Gamma(k, rate) variate, which is the same law. Erlang and MixedErlang
// both sample through it.
func erlangSample(k int, rate float64, rng *rand.Rand) float64 {
	if k == 1 {
		return rng.ExpFloat64() / rate
	}
	return gammaSample(float64(k), rate, rng)
}

// gammaSample draws Gamma(shape, rate) for shape >= 1 by Marsaglia and
// Tsang's squeeze-rejection method (ACM TOMS 2000): one normal and one
// uniform per attempt, accepted more than 95% of the time for every
// shape >= 1, so the cost does not grow with the shape.
func gammaSample(shape, rate float64, rng *rand.Rand) float64 {
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 || math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v / rate
		}
	}
}

// Mean returns k/rate.
func (d Erlang) Mean() float64 { return float64(d.K) / d.Rate }

// SCV returns 1/k.
func (d Erlang) SCV() float64 { return 1 / float64(d.K) }

// CDF returns P(X ≤ x) via the integer-shape regularized gamma
// 1 - Σ_{i<k} e^{-λx} (λx)^i / i!. The Poisson terms are accumulated in
// log space so large λx cannot overflow the partial sum (the naive
// e^{-λx}·Σ(λx)^i/i! form yields 0·∞ = NaN past λx ≈ 709).
func (d Erlang) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	lx := d.Rate * x
	logTerm := -lx // log of the i=0 term
	logLx := math.Log(lx)
	sum := math.Exp(logTerm)
	for i := 1; i < d.K; i++ {
		logTerm += logLx - math.Log(float64(i))
		sum += math.Exp(logTerm)
	}
	if sum > 1 {
		sum = 1 // guard accumulated rounding at tiny x
	}
	return 1 - sum
}

// Quantile inverts the CDF numerically.
func (d Erlang) Quantile(p float64) float64 {
	checkP(p)
	return quantileByBisection(d.CDF, p, d.Mean())
}

func (d Erlang) String() string { return fmt.Sprintf("Erlang(k=%d, mean=%.4g)", d.K, d.Mean()) }

// Uniform is the continuous uniform distribution on [A, B].
type Uniform struct {
	A, B float64
}

// NewUniform returns a uniform distribution on [a, b]. The package
// models nonnegative variates (times, demands), so a must be >= 0 —
// which also keeps the mean-derived SCV well defined.
func NewUniform(a, b float64) Uniform {
	if b < a || a < 0 {
		panic(fmt.Sprintf("dist: uniform bounds [%v, %v] invalid", a, b))
	}
	return Uniform{A: a, B: b}
}

// Sample draws a uniform variate.
func (d Uniform) Sample(rng *rand.Rand) float64 { return d.A + rng.Float64()*(d.B-d.A) }

// Mean returns (a+b)/2.
func (d Uniform) Mean() float64 { return (d.A + d.B) / 2 }

// SCV returns Var/Mean²; 0 when the mean is 0.
func (d Uniform) SCV() float64 {
	m := d.Mean()
	if m == 0 {
		return 0
	}
	v := (d.B - d.A) * (d.B - d.A) / 12
	return v / (m * m)
}

// Quantile returns a + p(b-a).
func (d Uniform) Quantile(p float64) float64 {
	checkP(p)
	return d.A + p*(d.B-d.A)
}

func (d Uniform) String() string { return fmt.Sprintf("Uniform[%.4g, %.4g]", d.A, d.B) }

// Deterministic is the degenerate distribution concentrated at Value
// (SCV 0), the D in the paper's M/D/1 comparisons.
type Deterministic struct {
	Value float64
}

// Sample returns the constant.
func (d Deterministic) Sample(_ *rand.Rand) float64 { return d.Value }

// Mean returns the constant.
func (d Deterministic) Mean() float64 { return d.Value }

// SCV of a constant is 0.
func (d Deterministic) SCV() float64 { return 0 }

// Quantile returns the constant for every p.
func (d Deterministic) Quantile(p float64) float64 {
	checkP(p)
	return d.Value
}

func (d Deterministic) String() string { return fmt.Sprintf("Det(%.4g)", d.Value) }

// LogNormal is the lognormal distribution exp(N(Mu, Sigma²)), the
// heavy-tailed model for serverless execution times and last-mile RTTs.
type LogNormal struct {
	Mu, Sigma float64
}

// NewLogNormalMeanSCV fits a lognormal to the given mean and SCV:
// σ² = ln(1+scv), μ = ln(mean) − σ²/2. A zero SCV degenerates to a
// Deterministic.
func NewLogNormalMeanSCV(mean, scv float64) Dist {
	if mean <= 0 || scv < 0 {
		panic(fmt.Sprintf("dist: lognormal mean=%v scv=%v invalid", mean, scv))
	}
	if scv == 0 {
		return Deterministic{Value: mean}
	}
	s2 := math.Log1p(scv)
	return LogNormal{Mu: math.Log(mean) - s2/2, Sigma: math.Sqrt(s2)}
}

// Sample draws a lognormal variate.
func (d LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
}

// Mean returns exp(μ + σ²/2).
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// SCV returns exp(σ²) − 1.
func (d LogNormal) SCV() float64 { return math.Expm1(d.Sigma * d.Sigma) }

// Quantile returns exp(μ + σ·Φ⁻¹(p)).
func (d LogNormal) Quantile(p float64) float64 {
	checkP(p)
	switch p {
	case 0:
		return 0
	case 1:
		return math.Inf(1)
	}
	return math.Exp(d.Mu + d.Sigma*normQuantile(p))
}

func (d LogNormal) String() string {
	return fmt.Sprintf("LogNormal(mean=%.4g, scv=%.3g)", d.Mean(), d.SCV())
}

// Scaled multiplies another distribution by a positive Factor, the
// paper's edge-slowdown transform (§3.1.1): mean scales, SCV is
// preserved.
type Scaled struct {
	D      Dist
	Factor float64
}

// Sample draws from D and scales.
func (d Scaled) Sample(rng *rand.Rand) float64 { return d.Factor * d.D.Sample(rng) }

// Mean returns Factor·E[D].
func (d Scaled) Mean() float64 { return d.Factor * d.D.Mean() }

// SCV is invariant under positive scaling.
func (d Scaled) SCV() float64 { return d.D.SCV() }

// Quantile scales the underlying quantile.
func (d Scaled) Quantile(p float64) float64 { return d.Factor * d.D.Quantile(p) }

func (d Scaled) String() string { return fmt.Sprintf("%.4g×%s", d.Factor, d.D) }

// Shifted adds a constant Offset to another distribution, modeling a
// fixed propagation delay plus jitter (netem's base + uniform model).
type Shifted struct {
	D      Dist
	Offset float64
}

// Sample draws from D and shifts.
func (d Shifted) Sample(rng *rand.Rand) float64 { return d.Offset + d.D.Sample(rng) }

// Mean returns Offset + E[D].
func (d Shifted) Mean() float64 { return d.Offset + d.D.Mean() }

// SCV recomputes Var/Mean² around the shifted mean. A zero shifted mean
// with positive variance has no finite SCV; +Inf is returned rather
// than a silently wrong 0.
func (d Shifted) SCV() float64 {
	m := d.Mean()
	v := Variance(d.D)
	if m == 0 {
		if v == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return v / (m * m)
}

// Quantile shifts the underlying quantile.
func (d Shifted) Quantile(p float64) float64 { return d.Offset + d.D.Quantile(p) }

func (d Shifted) String() string { return fmt.Sprintf("%.4g+%s", d.Offset, d.D) }

// quantileByBisection inverts a monotone CDF on [0, ∞). meanHint seeds
// the upper-bracket search.
func quantileByBisection(cdf func(float64) float64, p, meanHint float64) float64 {
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	hi := meanHint
	if hi <= 0 {
		hi = 1
	}
	for cdf(hi) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	lo := 0.0
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// normQuantile is the standard normal inverse CDF Φ⁻¹(p) for p in (0,1),
// Acklam's rational approximation refined with one Halley step (relative
// error below 1e-9 across the domain).
func normQuantile(p float64) float64 {
	const (
		a1, a2, a3 = -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02
		a4, a5, a6 = 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00
		b1, b2, b3 = -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02
		b4, b5     = 6.680131188771972e+01, -1.328068155288572e+01
		c1, c2, c3 = -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00
		c4, c5, c6 = -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00
		d1, d2, d3 = 7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00
		d4         = 3.754408661907416e+00
		pLow       = 0.02425
	)
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
	// One Halley refinement against the true CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}
