package stats

import "math"

// A sketch key is a positive float64's exponent plus its top
// sketchSubBits mantissa bits, so each octave splits into sketchOctave
// log-linear buckets. A bucket spans at most 1/64 of its lower bound,
// so its midpoint lies within boundedRelErr of every value it holds.
const (
	sketchSubBits = 6
	sketchShift   = 52 - sketchSubBits
	sketchOctave  = 1 << sketchSubBits
	boundedRelErr = 1.0 / (2 * sketchOctave) // 2⁻⁷ ≈ 0.78%
)

// sketch is a mergeable log-linear bucket histogram, after DDSketch
// (Masson, Rim & Lee, VLDB 2019). counts[i] holds the observations
// whose key is lo+i; observations ≤ 0 only count in zero. The range
// grows in whole octaves, so memory is 64 × 4 B per octave the data
// spans. Merging is a bucket-wise sum: exact and independent of order.
type sketch struct {
	lo     int      // key of counts[0], a multiple of sketchOctave
	counts []uint32 // low 32 bits of each bucket's count
	high   []uint64 // count>>32 per bucket; nil until a bucket carries
	zero   uint64   // observations ≤ 0 (or NaN)
}

func sketchKey(x float64) int { return int(math.Float64bits(x) >> sketchShift) }

func (s *sketch) add(x float64) {
	if !(x > 0) {
		s.zero++
		return
	}
	k := sketchKey(x)
	i := k - s.lo
	if uint(i) >= uint(len(s.counts)) {
		s.cover(k, k+1)
		i = k - s.lo
	}
	s.counts[i]++
	if s.counts[i] == 0 {
		s.carry(i, 1)
	}
}

// cover widens the range, in whole octaves, to hold keys [from, to).
func (s *sketch) cover(from, to int) {
	from &^= sketchOctave - 1
	to = (to + sketchOctave - 1) &^ (sketchOctave - 1)
	n := len(s.counts)
	if n == 0 {
		s.lo = from
	} else if from >= s.lo && to <= s.lo+n {
		return
	}
	from, to = min(from, s.lo), max(to, s.lo+n)
	counts := make([]uint32, to-from)
	copy(counts[s.lo-from:], s.counts)
	if s.high != nil {
		high := make([]uint64, len(counts))
		copy(high[s.lo-from:], s.high)
		s.high = high
	}
	s.lo, s.counts = from, counts
}

// carry adds h·2³² to bucket i's count.
func (s *sketch) carry(i int, h uint64) {
	if s.high == nil {
		s.high = make([]uint64, len(s.counts))
	}
	s.high[i] += h
}

// count returns bucket i's full count.
func (s *sketch) count(i int) uint64 {
	c := uint64(s.counts[i])
	if s.high != nil {
		c += s.high[i] << 32
	}
	return c
}

// merge adds every bucket of o into s.
func (s *sketch) merge(o *sketch) {
	s.zero += o.zero
	if len(o.counts) == 0 {
		return
	}
	s.cover(o.lo, o.lo+len(o.counts))
	off := o.lo - s.lo
	for i, c := range o.counts {
		sum := uint64(s.counts[off+i]) + uint64(c)
		s.counts[off+i] = uint32(sum)
		h := sum >> 32
		if o.high != nil {
			h += o.high[i]
		}
		if h != 0 {
			s.carry(off+i, h)
		}
	}
}

// quantile estimates the type-7 q-quantile of n observations spanning
// [lo, hi], for 0 < q < 1: it interpolates between the midpoints of
// the buckets holding the order statistics either side of rank q(n−1),
// each clamped to [lo, hi]. For positive normal values every midpoint
// is within boundedRelErr of the order statistic it stands for, so the
// result is within boundedRelErr of the exact quantile.
func (s *sketch) quantile(q float64, n int64, lo, hi float64) float64 {
	pos := q * float64(n-1)
	r := uint64(pos)
	frac := pos - float64(r)
	var v [2]float64
	cum, i := s.zero, -1 // bucket -1 is the zero count
	for k := range v {
		for r >= cum && i+1 < len(s.counts) {
			i++
			cum += s.count(i)
		}
		v[k] = s.mid(i, lo, hi)
		r++
	}
	return v[0]*(1-frac) + v[1]*frac
}

// mid returns bucket i's midpoint (0 for the zero count), clamped to
// [lo, hi].
func (s *sketch) mid(i int, lo, hi float64) float64 {
	v := 0.0
	if i >= 0 {
		k := uint64(s.lo + i)
		v = (math.Float64frombits(k<<sketchShift) + math.Float64frombits((k+1)<<sketchShift)) / 2
	}
	return min(max(v, lo), hi)
}
