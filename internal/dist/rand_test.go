package dist

import (
	"math"
	"sort"
	"testing"
)

// TestNewRandPinned pins the first outputs of two streams against an
// independent implementation of splitmix64-seeded xoshiro256**, so a
// change to the generator or its seeding cannot pass unnoticed.
func TestNewRandPinned(t *testing.T) {
	want := map[int64][8]uint64{
		1: {0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d},
		-7: {0xf305399b3b63f2c2, 0xd693dd0a37ae5bdc, 0x736e8338a3f226b9, 0x6a0da5410c1bdfa1,
			0x7349d5fdf5fb9fcf, 0x38a41ad6a8a93a5e, 0xc69d7adc75c71146, 0xee37db32c7c0b047},
	}
	for seed, w := range want {
		rng := NewRand(seed)
		for i, v := range w {
			if got := rng.Uint64(); got != v {
				t.Errorf("seed %d output %d = %#x, want %#x", seed, i, got, v)
			}
		}
	}
}

// TestNewRandKS checks Float64 against U(0,1) and ExpFloat64 against
// Exp(1) with a one-sample Kolmogorov–Smirnov test at α = 0.001
// (critical value 1.95/√n) for several seeds.
func TestNewRandKS(t *testing.T) {
	const n = 100_000
	crit := 1.95 / math.Sqrt(n)
	for _, seed := range []int64{0, 1, 2, 42, -1} {
		rng := NewRand(seed)
		u := make([]float64, n)
		e := make([]float64, n)
		for i := range u {
			u[i] = rng.Float64()
			e[i] = rng.ExpFloat64()
		}
		for _, c := range []struct {
			name string
			xs   []float64
			cdf  func(float64) float64
		}{
			{"Float64", u, func(x float64) float64 { return x }},
			{"ExpFloat64", e, func(x float64) float64 { return 1 - math.Exp(-x) }},
		} {
			sort.Float64s(c.xs)
			var ks float64
			for j, x := range c.xs {
				f := c.cdf(x)
				ks = math.Max(ks, math.Max(float64(j+1)/n-f, f-float64(j)/n))
			}
			if ks > crit {
				t.Errorf("seed %d %s: KS distance %.5f exceeds %.5f", seed, c.name, ks, crit)
			}
		}
	}
}

// TestNewRandAdjacentSeedsUncorrelated bounds the lag-0 correlation of
// the streams of adjacent seeds, which is what per-site streams seeded
// from consecutive values see. Under independence the sample
// correlation of n pairs has standard deviation 1/√n; the bound is 4σ.
func TestNewRandAdjacentSeedsUncorrelated(t *testing.T) {
	const n = 100_000
	bound := 4 / math.Sqrt(n)
	for _, seed := range []int64{0, 1, 1000, -5} {
		a, b := NewRand(seed), NewRand(seed+1)
		var sa, sb, saa, sbb, sab float64
		for i := 0; i < n; i++ {
			x, y := a.Float64(), b.Float64()
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
		cov := sab/n - (sa/n)*(sb/n)
		r := cov / math.Sqrt((saa/n-(sa/n)*(sa/n))*(sbb/n-(sb/n)*(sb/n)))
		if math.Abs(r) > bound {
			t.Errorf("seeds %d and %d: correlation %.5f exceeds %.5f", seed, seed+1, r, bound)
		}
	}
}

// TestNewRandAllocs: a stream is the generator state plus the rand.Rand
// wrapper, two objects.
func TestNewRandAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NewRand(7) }); n > 2 {
		t.Errorf("NewRand allocates %v objects, want at most 2", n)
	}
}

func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		NewRand(7)
	}
}

func BenchmarkRandFloat64(b *testing.B) {
	rng := NewRand(1)
	for b.Loop() {
		rng.Float64()
	}
}
