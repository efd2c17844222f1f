package stats

import (
	"math"
	"math/big"
	"math/bits"
)

// sums holds Σx and Σx² of a multiset of float64 values exactly, as
// integers, after the small superaccumulators of Neal ("Fast exact
// summation using small and large superaccumulators", arXiv:1505.05571).
// Integer addition is associative, so every add order and merge tree
// leaves the same state, and a moment read from it is one correctly
// rounded function of the multiset.
//
// A finite x = ±m·2^q (m < 2⁵³) has the exact square m²·2^(2q). Values
// with 2⁻⁴⁴ ≤ |x| < 2³² — every latency from 57 fs to 136 years — land
// in a fixed-point window: x in units of 2⁻⁹⁶ across three limbs, x²
// in units of 2⁻¹⁹² across five, both two's complement and little
// endian, with at least 63 bits of headroom, so no count of adds a
// Stream can hold overflows them. Zero adds nothing; any other value
// goes to the full-range fallback, allocated at the first one.
type sums struct {
	x    [3]uint64
	xx   [5]uint64
	wide *wideSums
}

// wideSums holds what the window cannot: Σx in units of 2⁻¹⁰⁷⁴ and Σx²
// in units of 2⁻²¹⁴⁸ of the finite values outside it, and a count of
// each non-finite kind.
type wideSums struct {
	x, xx               big.Int
	posInf, negInf, nan int64
}

// The window's biased-exponent range: x's mantissa m shifts left by
// e − winExp into Σx's limbs, for e in [winExp, winExp+winSpan).
const (
	winExp    = 1023 - 44
	winSpan   = 44 + 32
	winScale  = 96   // Σx's units are 2^-winScale, Σx²'s 2^-2·winScale
	wideScale = 1074 // the same for the fallback: the smallest subnormal
)

// add records one value.
func (a *sums) add(x float64) {
	b := math.Float64bits(x)
	s := uint(b>>52&0x7ff) - winExp
	if s >= winSpan {
		a.addWide(x)
		return
	}
	m := b&(1<<52-1) | 1<<52
	// Σx: m·2^s spans limbs k and k+1; Go's shifts by 64 give 0.
	var t [3]uint64
	k, r := s>>6&1, s&63
	t[k], t[k+1] = m<<r, m>>(64-r)
	var c uint64
	if b>>63 == 0 {
		a.x[0], c = bits.Add64(a.x[0], t[0], 0)
		a.x[1], c = bits.Add64(a.x[1], t[1], c)
		a.x[2], _ = bits.Add64(a.x[2], t[2], c)
	} else {
		a.x[0], c = bits.Sub64(a.x[0], t[0], 0)
		a.x[1], c = bits.Sub64(a.x[1], t[1], c)
		a.x[2], _ = bits.Sub64(a.x[2], t[2], c)
	}
	// Σx²: the 106-bit m² shifted by 2s spans limbs k to k+2 (k ≤ 2).
	hi, lo := bits.Mul64(m, m)
	var u [8]uint64
	k, r = 2*s>>6&3, 2*s&63
	u[k], u[k+1], u[k+2] = lo<<r, hi<<r|lo>>(64-r), hi>>(64-r)
	a.xx[0], c = bits.Add64(a.xx[0], u[0], 0)
	a.xx[1], c = bits.Add64(a.xx[1], u[1], c)
	a.xx[2], c = bits.Add64(a.xx[2], u[2], c)
	a.xx[3], c = bits.Add64(a.xx[3], u[3], c)
	a.xx[4], _ = bits.Add64(a.xx[4], u[4], c)
}

// addWide records a value outside the window.
func (a *sums) addWide(x float64) {
	if x == 0 {
		return
	}
	if a.wide == nil {
		a.wide = &wideSums{}
	}
	w := a.wide
	switch {
	case x != x:
		w.nan++
		return
	case math.IsInf(x, 1):
		w.posInf++
		return
	case math.IsInf(x, -1):
		w.negInf++
		return
	}
	b := math.Float64bits(x)
	e, m := b>>52&0x7ff, b&(1<<52-1)
	if e == 0 {
		e = 1 // subnormal: no implicit bit, the smallest normal's scale
	} else {
		m |= 1 << 52
	}
	// x = m·2^(e−1075), so in units of 2⁻¹⁰⁷⁴ it is m·2^(e−1), and x² in
	// units of 2⁻²¹⁴⁸ is m²·2^(2e−2).
	v := new(big.Int).SetUint64(m)
	sq := new(big.Int).Mul(v, v)
	v.Lsh(v, uint(e-1))
	if b>>63 != 0 {
		v.Neg(v)
	}
	w.x.Add(&w.x, v)
	w.xx.Add(&w.xx, sq.Lsh(sq, uint(2*e-2)))
}

// merge adds o's sums into a.
func (a *sums) merge(o *sums) {
	var c uint64
	for i := range a.x {
		a.x[i], c = bits.Add64(a.x[i], o.x[i], c)
	}
	c = 0
	for i := range a.xx {
		a.xx[i], c = bits.Add64(a.xx[i], o.xx[i], c)
	}
	if o.wide == nil {
		return
	}
	if a.wide == nil {
		a.wide = &wideSums{}
	}
	w, ow := a.wide, o.wide
	w.x.Add(&w.x, &ow.x)
	w.xx.Add(&w.xx, &ow.xx)
	w.posInf += ow.posInf
	w.negInf += ow.negInf
	w.nan += ow.nan
}

// clone returns a copy of a that shares no state with it.
func (a *sums) clone() *sums {
	c := &sums{}
	c.merge(a)
	return c
}

// special returns the value every moment takes when a non-finite value
// was added: NaN after a NaN or both infinities, else the infinity
// added. ok is false when every value was finite.
func (a *sums) special() (v float64, ok bool) {
	w := a.wide
	switch {
	case w == nil:
		return 0, false
	case w.nan > 0 || w.posInf > 0 && w.negInf > 0:
		return math.NaN(), true
	case w.posInf > 0:
		return math.Inf(1), true
	case w.negInf > 0:
		return math.Inf(-1), true
	}
	return 0, false
}

// exact returns Σx as sx·2^-scale and Σx² as sxx·2^-2·scale.
func (a *sums) exact() (sx, sxx *big.Int, scale uint) {
	sx, sxx = limbsInt(a.x[:]), limbsInt(a.xx[:])
	if a.wide == nil || a.wide.x.Sign() == 0 && a.wide.xx.Sign() == 0 {
		return sx, sxx, winScale
	}
	sx.Lsh(sx, wideScale-winScale).Add(sx, &a.wide.x)
	sxx.Lsh(sxx, 2*(wideScale-winScale)).Add(sxx, &a.wide.xx)
	return sx, sxx, wideScale
}

// limbsInt returns the two's-complement little-endian limbs l as an
// integer.
func limbsInt(l []uint64) *big.Int {
	z := new(big.Int)
	for i := len(l) - 1; i >= 0; i-- {
		z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(l[i]))
	}
	if l[len(l)-1]>>63 != 0 {
		z.Sub(z, new(big.Int).Lsh(big.NewInt(1), uint(64*len(l))))
	}
	return z
}

// mean returns Σx/n correctly rounded, for n > 0.
func (a *sums) mean(n int64) float64 {
	if v, ok := a.special(); ok {
		return v
	}
	sx, _, scale := a.exact()
	den := new(big.Int).Lsh(big.NewInt(n), scale)
	f, _ := new(big.Rat).SetFrac(sx, den).Float64()
	return f
}

// variance returns the unbiased sample variance
// (n·Σx² − (Σx)²) / (n(n−1)) correctly rounded, for n ≥ 2: NaN when a
// non-finite value was added.
func (a *sums) variance(n int64) float64 {
	if _, ok := a.special(); ok {
		return math.NaN()
	}
	sx, sxx, scale := a.exact()
	bn := big.NewInt(n)
	num := new(big.Int).Mul(bn, sxx)
	num.Sub(num, sx.Mul(sx, sx))
	den := new(big.Int).Mul(bn, big.NewInt(n-1))
	den.Lsh(den, 2*scale)
	f, _ := new(big.Rat).SetFrac(num, den).Float64()
	return f
}
