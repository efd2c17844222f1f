package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dist"
)

// measureRate counts arrivals of a process over a horizon.
func measureRate(p ArrivalProcess, horizon float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	t, n := 0.0, 0
	for {
		next, ok := p.Next(t, rng)
		if !ok || next > horizon {
			break
		}
		t = next
		n++
	}
	return float64(n) / horizon
}

func TestPoissonRate(t *testing.T) {
	p := NewPoisson(8)
	if got := measureRate(p, 5000, 1); math.Abs(got-8) > 0.3 {
		t.Errorf("Poisson rate = %v, want ~8", got)
	}
	if p.Rate() != 8 {
		t.Errorf("nominal rate = %v", p.Rate())
	}
}

func TestPacedRegularity(t *testing.T) {
	// Erlang-4 inter-arrivals have SCV 1/4: measure it.
	p := NewPaced(10, 4)
	rng := rand.New(rand.NewSource(2))
	var prev, sum, sum2 float64
	n := 0
	tt := 0.0
	for i := 0; i < 50000; i++ {
		next, _ := p.Next(tt, rng)
		if i > 0 {
			d := next - prev
			sum += d
			sum2 += d * d
			n++
		}
		prev, tt = next, next
	}
	mean := sum / float64(n)
	scv := sum2/float64(n)/(mean*mean) - 1
	if math.Abs(scv-0.25) > 0.03 {
		t.Errorf("paced SCV = %v, want 0.25", scv)
	}
	if math.Abs(mean-0.1) > 0.005 {
		t.Errorf("paced mean inter-arrival = %v, want 0.1", mean)
	}
}

// TestRenewalMonotone: arrival times strictly increase.
func TestRenewalMonotone(t *testing.T) {
	f := func(seed int64) bool {
		p := NewRenewal(dist.NewExponential(5))
		rng := rand.New(rand.NewSource(seed))
		tt := 0.0
		for i := 0; i < 100; i++ {
			next, ok := p.Next(tt, rng)
			if !ok || next <= tt {
				return false
			}
			tt = next
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMMPPRate(t *testing.T) {
	// Low 2/s for mean 10s, high 20/s for mean 10s → average 11/s.
	p := NewMMPP(2, 20, 10, 10)
	if got := p.Rate(); math.Abs(got-11) > 1e-9 {
		t.Errorf("MMPP nominal rate = %v, want 11", got)
	}
	if got := measureRate(p, 20000, 3); math.Abs(got-11) > 1 {
		t.Errorf("MMPP measured rate = %v, want ~11", got)
	}
}

func TestMMPPBurstierThanPoisson(t *testing.T) {
	// The MMPP's inter-arrival SCV must exceed 1.
	p := NewMMPP(1, 30, 5, 5)
	rng := rand.New(rand.NewSource(4))
	var prev float64
	var s, s2 float64
	n := 0
	tt := 0.0
	for i := 0; i < 40000; i++ {
		next, _ := p.Next(tt, rng)
		if i > 0 {
			d := next - prev
			s += d
			s2 += d * d
			n++
		}
		prev, tt = next, next
	}
	mean := s / float64(n)
	scv := s2/float64(n)/(mean*mean) - 1
	if scv <= 1.2 {
		t.Errorf("MMPP SCV = %v, want clearly > 1", scv)
	}
}

func TestNHPPEnvelope(t *testing.T) {
	// Rate 10 for 100 s then 0: expect ~1000 arrivals, none after t=100.
	p := NewNHPP([]float64{10, 0}, 100, false)
	rng := rand.New(rand.NewSource(5))
	tt, n := 0.0, 0
	last := 0.0
	for {
		next, ok := p.Next(tt, rng)
		if !ok {
			break
		}
		tt = next
		last = next
		n++
	}
	if math.Abs(float64(n)-1000) > 120 {
		t.Errorf("NHPP arrivals = %d, want ~1000", n)
	}
	if last > 100 {
		t.Errorf("arrival at %v after envelope's active bin", last)
	}
	if p.Duration() != 200 {
		t.Errorf("Duration = %v, want 200", p.Duration())
	}
	if math.Abs(p.Rate()-5) > 1e-9 {
		t.Errorf("average rate = %v, want 5", p.Rate())
	}
}

func TestNHPPCycle(t *testing.T) {
	p := NewNHPP([]float64{5}, 10, true)
	rng := rand.New(rand.NewSource(6))
	tt := 0.0
	for i := 0; i < 100; i++ {
		next, ok := p.Next(tt, rng)
		if !ok {
			t.Fatal("cycling NHPP should never exhaust")
		}
		tt = next
	}
	if tt < 10 {
		t.Errorf("cycling NHPP should pass the envelope end, got %v", tt)
	}
}

// TestNHPPZeroEnvelope: an all-zero envelope produces no arrivals. The
// cycling one must return at once rather than walk its 10⁶-bin budget
// looking for a positive rate: 1000 calls take microseconds that way
// and seconds the other, so the 1-second bound cannot flake.
func TestNHPPZeroEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cycle := range []bool{false, true} {
		p := NewNHPP([]float64{0, 0}, 10, cycle)
		start := time.Now()
		for i := 0; i < 1000; i++ {
			if _, ok := p.Next(float64(i), rng); ok {
				t.Fatalf("cycle=%v: all-zero envelope should produce no arrivals", cycle)
			}
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("cycle=%v: 1000 calls on an all-zero envelope took %v", cycle, d)
		}
	}
}

// TestNHPPRejectsBadBins: a negative, NaN or infinite bin panics at
// construction. An infinite bin would yield every arrival at one
// instant and a NaN one would never advance the clock.
func TestNHPPRejectsBadBins(t *testing.T) {
	for _, r := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewNHPP accepted a bin of rate %v", r)
				}
			}()
			NewNHPP([]float64{3, r}, 1, false)
		}()
	}
}

// TestMMPPStructLiteral: an MMPP built without NewMMPP must lazily
// derive its sampling distributions instead of nil-panicking.
func TestMMPPStructLiteral(t *testing.T) {
	p := &MMPP{RateLow: 1, RateHigh: 30, MeanLow: 5, MeanHigh: 5}
	rng := rand.New(rand.NewSource(4))
	t0, n := 0.0, 0
	for t0 < 2000 {
		next, ok := p.Next(t0, rng)
		if !ok {
			t.Fatal("MMPP exhausted")
		}
		t0 = next
		n++
	}
	rate := float64(n) / t0
	if want := p.Rate(); math.Abs(rate-want) > 0.2*want {
		t.Errorf("literal MMPP empirical rate %.2f, want ≈ %.2f", rate, want)
	}
}
