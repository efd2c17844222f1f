package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigMoments is the math/big reference for finite values: the mean and
// the unbiased variance of xs, each taken mult times, from exact
// rational sums and rounded once to the nearest float64.
func bigMoments(xs []float64, mult ...int64) (mean, variance float64) {
	k := int64(1)
	if len(mult) > 0 {
		k = mult[0]
	}
	sx, sxx := new(big.Rat), new(big.Rat)
	for _, x := range xs {
		r := new(big.Rat).SetFloat64(x)
		sx.Add(sx, r)
		sxx.Add(sxx, r.Mul(r, r))
	}
	bk := new(big.Rat).SetInt64(k)
	sx.Mul(sx, bk)
	sxx.Mul(sxx, bk)
	n := k * int64(len(xs))
	if n == 0 {
		return 0, 0
	}
	bn := new(big.Rat).SetInt64(n)
	mean, _ = new(big.Rat).Quo(sx, bn).Float64()
	if n < 2 {
		return mean, 0
	}
	num := new(big.Rat).Mul(bn, sxx)
	num.Sub(num, new(big.Rat).Mul(sx, sx))
	variance, _ = num.Quo(num, new(big.Rat).SetInt64(n*(n-1))).Float64()
	return mean, variance
}

// sameBits reports whether a and b have the same bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStreamHostileInputs: on inputs that defeat float summation, both
// modes' moments are the math/big reference's bit for bit, and their
// extremes are the true ones.
func TestStreamHostileInputs(t *testing.T) {
	ms := make([]float64, 100_000) // 1 ms values, jittered in their last bits
	for i := range ms {
		ms[i] = 0.001 * (1 + float64(i%97)*0x1p-40)
	}
	huge := []float64{1e-3} // the window's largest values, whose sums carry into its top limbs
	for i := 0; i < 1000; i++ {
		huge = append(huge, 0x1.fffffffffffffp31-float64(i))
	}
	for _, tc := range []struct {
		name string
		xs   []float64
	}{
		{"outlier", append([]float64{1e5}, ms...)},
		{"subnormals", []float64{5e-324, 1e-310, -2.5e-320, 0.004, 1e-300, 0x1p-1022}},
		{"signed zeros", []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}},
		{"negatives", []float64{-3.5, 2, -1e-3, 1e9, -1e9, 7e-20, -0.25}},
		{"cancellation", []float64{1e300, 1, -1e300, 1e-300, 3}},
		{"edges of the window", []float64{0x1p-44, 0x1.fffffffffffffp31, 0x1p32, 0x1.fffffffffffffp-45}},
		{"top of the window", huge},
		{"constant", []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}},
	} {
		wantMean, wantVar := bigMoments(tc.xs)
		wantMin, wantMax := math.Inf(1), math.Inf(-1)
		for _, x := range tc.xs {
			wantMin, wantMax = math.Min(wantMin, x), math.Max(wantMax, x)
		}
		for _, mode := range []Mode{Bounded, Exact} {
			d := NewDigest(mode, 0)
			for _, x := range tc.xs {
				d.Add(x)
			}
			label := tc.name + " " + mode.String()
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"mean", d.Mean(), wantMean},
				{"variance", d.Variance(), wantVar},
				{"min", d.Min(), wantMin},
				{"max", d.Max(), wantMax},
			} {
				if !sameBits(m.got, m.want) {
					t.Errorf("%s: %s %v, reference %v", label, m.name, m.got, m.want)
				}
			}
		}
	}
}

// TestStreamBillionByMerges: 10⁹ values built by merging a
// 1,000-value stream into itself keep the reference mean and variance.
func TestStreamBillionByMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 0.013 * rng.ExpFloat64()
	}
	xs[0] = 1e5 // an outlier, so the variance is not the base's
	d := NewDigest(Bounded, 0)
	for _, x := range xs {
		d.Add(x)
	}
	const doublings = 20 // 1000 · 2²⁰ ≈ 1.05·10⁹
	for i := 0; i < doublings; i++ {
		c := NewDigest(Bounded, 0)
		c.Merge(&d)
		d.Merge(&c)
	}
	wantMean, wantVar := bigMoments(xs, 1<<doublings)
	if d.N() != len(xs)<<doublings || !sameBits(d.Mean(), wantMean) || !sameBits(d.Variance(), wantVar) {
		t.Errorf("n=%d mean %v variance %v, reference n=%d mean %v variance %v",
			d.N(), d.Mean(), d.Variance(), len(xs)<<doublings, wantMean, wantVar)
	}
}

// TestStreamNonFinite: a NaN makes every moment NaN; an infinity makes
// the mean that infinity (NaN with both) and the variance NaN, and
// stays a true extreme.
func TestStreamNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		xs                   []float64
		mean, min, max, vari float64
	}{
		{[]float64{1, inf, 2}, inf, 1, inf, nan},
		{[]float64{1, -inf, 2}, -inf, -inf, 2, nan},
		{[]float64{inf, 1, -inf}, nan, -inf, inf, nan},
		{[]float64{1, nan, 2}, nan, nan, nan, nan},
		{[]float64{nan, 1, 2}, nan, nan, nan, nan},
	} {
		for _, mode := range []Mode{Bounded, Exact} {
			d := NewDigest(mode, 0)
			for _, x := range tc.xs {
				d.Add(x)
			}
			for _, m := range [][2]float64{{d.Mean(), tc.mean}, {d.Min(), tc.min}, {d.Max(), tc.max}, {d.Variance(), tc.vari}} {
				if !(sameBits(m[0], m[1]) || math.IsNaN(m[0]) && math.IsNaN(m[1])) {
					t.Errorf("%s %v: mean %v min %v max %v variance %v, want %v %v %v %v",
						mode, tc.xs, d.Mean(), d.Min(), d.Max(), d.Variance(), tc.mean, tc.min, tc.max, tc.vari)
					break
				}
			}
		}
	}
}

// TestSampleMeanIgnoresQuantileReads: a quantile read sorts the sample
// in place, and the mean and standard deviation read after it are the
// ones read before, bit for bit.
func TestSampleMeanIgnoresQuantileReads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sample
	for i := 0; i < 10_000; i++ {
		s.Add(0.05 * rng.ExpFloat64())
	}
	mean, sd := s.Mean(), s.StdDev()
	s.Quantile(0.5)
	if !sameBits(s.Mean(), mean) || !sameBits(s.StdDev(), sd) {
		t.Errorf("after a quantile read: mean %v sd %v, before %v %v", s.Mean(), s.StdDev(), mean, sd)
	}
}

// FuzzStreamOrderFree feeds float64 bit patterns to both modes in
// order, reversed, and split in two then merged, and requires the same
// bits for the count, mean, variance, min, max and every quantile of
// each mode, and for the moments across the modes.
func FuzzStreamOrderFree(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(0.1, 0.2, 0.3), uint8(1))
	f.Add(seed(1e5, 0.001, 0.001, 0.002), uint8(2))
	f.Add(seed(math.Copysign(0, -1), 0, 5e-324, -1e300, 1e300), uint8(3))
	f.Add(seed(math.Inf(1), 1, math.NaN(), -2), uint8(0))
	f.Add(seed(math.Copysign(0, -1), 0), uint8(1))
	f.Add(seed(math.Float64frombits(0x7ff8000000000002), 1, math.Float64frombits(0xfff8000000000003)), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		k := 0
		if len(xs) > 0 {
			k = int(cut) % (len(xs) + 1)
		}
		var orders [2][3]Digest // mode × (in order, reversed, split)
		for _, mode := range []Mode{Bounded, Exact} {
			o := &orders[mode]
			for i := range o {
				o[i] = NewDigest(mode, 0)
			}
			right := NewDigest(mode, 0)
			for i, x := range xs {
				o[0].Add(x)
				o[1].Add(xs[len(xs)-1-i])
				if i < k {
					o[2].Add(x)
				} else {
					right.Add(x)
				}
			}
			o[2].Merge(&right)
			for i := 1; i < len(o); i++ {
				label := fmt.Sprintf("%s order %d", mode, i)
				sameMoments(t, label, &o[i], &o[0])
				for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
					if g, w := o[i].Quantile(q), o[0].Quantile(q); !sameBits(g, w) {
						t.Fatalf("%s q=%v: %v vs %v", label, q, g, w)
					}
				}
			}
		}
		sameMoments(t, "exact vs bounded", &orders[Exact][0], &orders[Bounded][0])
	})
}
