package theory

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestErlangBKnownValues(t *testing.T) {
	// Classic table values: B(c=1,a=1)=0.5; B(2,1)=0.2; B(5,3)≈0.11005.
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 0.2},
		{5, 3, 0.110054},
		{0, 1, 1},
		{10, 5, 0.018385},
	}
	for _, c := range cases {
		got := ErlangB(c.c, c.a)
		if !close(got, c.want, 1e-4) {
			t.Errorf("ErlangB(%d, %v) = %v, want %v", c.c, c.a, got, c.want)
		}
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// C(c=1,a=ρ) = ρ for M/M/1.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); !close(got, rho, 1e-12) {
			t.Errorf("ErlangC(1, %v) = %v, want %v", rho, got, rho)
		}
	}
	// Known: C(2, 1) = 1/3.
	if got := ErlangC(2, 1); !close(got, 1.0/3, 1e-9) {
		t.Errorf("ErlangC(2,1) = %v, want 1/3", got)
	}
	// Saturated: probability of waiting → 1.
	if got := ErlangC(3, 3); got != 1 {
		t.Errorf("ErlangC at saturation = %v, want 1", got)
	}
}

// TestErlangCBounds: 0 ≤ C ≤ 1 and C ≥ B for all stable loads.
func TestErlangCBounds(t *testing.T) {
	f := func(cRaw uint8, aRaw uint8) bool {
		c := 1 + int(cRaw%20)
		a := float64(aRaw%100) / 100 * float64(c) * 0.99
		b := ErlangB(c, a)
		cc := ErlangC(c, a)
		return cc >= -1e-12 && cc <= 1+1e-12 && cc >= b-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMM1WaitFormula(t *testing.T) {
	// Wq = ρ/(μ(1−ρ)): at ρ=0.5, μ=1 → 1.
	if got := MM1Wait(0.5, 1); !close(got, 1, 1e-12) {
		t.Errorf("MM1Wait(0.5,1) = %v, want 1", got)
	}
	if !math.IsInf(MM1Wait(1, 1), 1) {
		t.Error("saturated M/M/1 wait should be +Inf")
	}
	if MM1Wait(0, 5) != 0 {
		t.Error("zero-load wait should be 0")
	}
}

func TestMM1SojournAndQueueLen(t *testing.T) {
	// T = 1/(μ(1−ρ)); Lq = ρ²/(1−ρ).
	if got := MM1Sojourn(0.5, 2); !close(got, 1, 1e-12) {
		t.Errorf("MM1Sojourn = %v, want 1", got)
	}
	if got := MM1QueueLen(0.5); !close(got, 0.5, 1e-12) {
		t.Errorf("MM1QueueLen = %v, want 0.5", got)
	}
	if !math.IsInf(MM1Sojourn(1.2, 1), 1) || !math.IsInf(MM1QueueLen(1), 1) {
		t.Error("saturation should yield +Inf")
	}
}

// TestMMcReducesToMM1: c=1 must agree with the M/M/1 formulas exactly.
func TestMMcReducesToMM1(t *testing.T) {
	f := func(rhoRaw, muRaw uint8) bool {
		rho := 0.01 + float64(rhoRaw%90)/100
		mu := 0.5 + float64(muRaw%40)
		return close(MMcWait(1, rho, mu), MM1Wait(rho, mu), 1e-9) &&
			close(MMcSojourn(1, rho, mu), MM1Sojourn(rho, mu), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMMcPoolingBenefit: at equal per-server utilization, more servers
// behind one queue always means less waiting — the bank-teller insight
// that drives the whole paper.
func TestMMcPoolingBenefit(t *testing.T) {
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		prev := math.Inf(1)
		for _, c := range []int{1, 2, 5, 10, 50} {
			w := MMcWait(c, rho, 1)
			if w >= prev {
				t.Errorf("rho=%v: wait not decreasing in c: W(%d)=%v >= %v", rho, c, w, prev)
			}
			prev = w
		}
	}
}

func TestMMcWaitKnownValue(t *testing.T) {
	// M/M/2 at ρ=0.5 (a=1): C=1/3, Wq = (1/3)/(2·1·0.5) = 1/3.
	if got := MMcWait(2, 0.5, 1); !close(got, 1.0/3, 1e-9) {
		t.Errorf("MMcWait(2,0.5,1) = %v, want 1/3", got)
	}
}

func TestMMcQueueLenLittle(t *testing.T) {
	// Lq = λ Wq with λ = cρμ.
	c, rho, mu := 5, 0.8, 13.0
	lq := MMcQueueLen(c, rho, mu)
	want := MMcWait(c, rho, mu) * float64(c) * rho * mu
	if !close(lq, want, 1e-12) {
		t.Errorf("MMcQueueLen = %v, want %v", lq, want)
	}
}

func TestMM1Quantiles(t *testing.T) {
	rho, mu := 0.8, 1.0
	// Sojourn is Exp(μ(1−ρ)): median = ln2/(0.2) ≈ 3.466.
	if got := MM1SojournQuantile(rho, mu, 0.5); !close(got, math.Ln2/0.2, 1e-9) {
		t.Errorf("sojourn median = %v", got)
	}
	// Wait has an atom at 0 with mass 1−ρ=0.2.
	if got := MM1WaitQuantile(rho, mu, 0.15); got != 0 {
		t.Errorf("wait quantile below atom = %v, want 0", got)
	}
	if got := MM1WaitQuantile(rho, mu, 0.95); got <= 0 {
		t.Errorf("p95 wait = %v, want > 0", got)
	}
	if !math.IsInf(MM1SojournQuantile(rho, mu, 1), 1) {
		t.Error("q=1 sojourn quantile should be +Inf")
	}
}

// TestMM1WaitQuantileConsistency: P(W ≤ quantile(q)) == q.
func TestMM1WaitQuantileConsistency(t *testing.T) {
	rho, mu := 0.7, 2.0
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		tq := MM1WaitQuantile(rho, mu, q)
		cdf := 1 - rho*math.Exp(-mu*(1-rho)*tq)
		if !close(cdf, q, 1e-9) {
			t.Errorf("q=%v: CDF(quantile) = %v", q, cdf)
		}
	}
}

func TestMD1IsHalfMM1(t *testing.T) {
	f := func(rhoRaw uint8) bool {
		rho := 0.01 + float64(rhoRaw%90)/100
		return close(MD1Wait(rho, 3), MM1Wait(rho, 3)/2, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPollaczekKhinchine(t *testing.T) {
	// cb2=1 recovers M/M/1; cb2=0 recovers M/D/1.
	if !close(PollaczekKhinchineWait(0.6, 2, 1), MM1Wait(0.6, 2), 1e-12) {
		t.Error("PK with cb2=1 should equal M/M/1")
	}
	if !close(PollaczekKhinchineWait(0.6, 2, 0), MD1Wait(0.6, 2), 1e-12) {
		t.Error("PK with cb2=0 should equal M/D/1")
	}
}

func TestWhittCondWait(t *testing.T) {
	// √2/((1−ρ)√k μ): k=1, ρ=0.5, μ=1 → 2√2.
	if got := WhittCondWait(1, 0.5, 1); !close(got, 2*math.Sqrt2, 1e-12) {
		t.Errorf("WhittCondWait = %v, want 2√2", got)
	}
	// Decreasing in k.
	if WhittCondWait(4, 0.5, 1) >= WhittCondWait(1, 0.5, 1) {
		t.Error("conditional wait should shrink with k")
	}
	if !math.IsInf(WhittCondWait(2, 1, 1), 1) {
		t.Error("saturated conditional wait should be +Inf")
	}
}

func TestMMcCondWaitExact(t *testing.T) {
	// Exponential conditional wait: 1/(cμ(1−ρ)).
	if got := MMcCondWait(4, 0.75, 2); !close(got, 1/(4*2*0.25), 1e-12) {
		t.Errorf("MMcCondWait = %v", got)
	}
}

func TestPanicsOnInvalidInputs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("MM1Wait negative", func() { MM1Wait(-0.1, 1) })
	mustPanic("MM1Wait zero mu", func() { MM1Wait(0.5, 0) })
	mustPanic("ErlangB negative", func() { ErlangB(-1, 1) })
	mustPanic("ErlangC zero c", func() { ErlangC(0, 1) })
	mustPanic("MMcWait zero c", func() { MMcWait(0, 0.5, 1) })
	mustPanic("WhittCondWait zero k", func() { WhittCondWait(0, 0.5, 1) })
}
