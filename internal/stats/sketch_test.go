package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mixture returns per-site digests in the given mode, each holding
// perSite exponential samples; the first hot sites have a mean hotMul
// times the others'. Every mode draws the same values for a seed.
func mixture(mode Mode, seed int64, sites, hot, perSite int, hotMul float64) []Digest {
	rng := rand.New(rand.NewSource(seed))
	ds := make([]Digest, sites)
	for s := range ds {
		ds[s] = NewDigest(mode, perSite)
		mean := 0.01
		if s < hot {
			mean *= hotMul
		}
		for i := 0; i < perSite; i++ {
			ds[s].Add(mean * rng.ExpFloat64())
		}
	}
	return ds
}

// TestDigestBoundedSkewedMixtures: per-site bounded digests merged
// into one aggregate give every tail quantile within the sketch's
// relative-error bound of the exact aggregate, including on skewed
// mixtures where a few hot sites own the tail.
func TestDigestBoundedSkewedMixtures(t *testing.T) {
	cases := []struct {
		name       string
		sites, hot int
		hotMul     float64
	}{
		{"200-sites-20-hot-10x", 200, 20, 10},
		{"5-sites-1-hot-4x", 5, 1, 4},
		{"200-homogeneous", 200, 0, 1},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var bounded Digest
			exact := NewDigest(Exact, 0)
			for _, d := range mixture(Bounded, int64(i), c.sites, c.hot, 5000, c.hotMul) {
				bounded.Merge(&d)
			}
			for _, d := range mixture(Exact, int64(i), c.sites, c.hot, 5000, c.hotMul) {
				exact.Merge(&d)
			}
			if bounded.Mode() != Bounded || bounded.N() != exact.N() {
				t.Fatalf("merged %s digest of %d, want bounded of %d", bounded.Mode(), bounded.N(), exact.N())
			}
			for _, q := range []float64{0.5, 0.95, 0.99} {
				want, got := exact.Quantile(q), bounded.Quantile(q)
				if rel := math.Abs(got-want) / want; rel > boundedRelErr {
					t.Errorf("p%v: bounded %v vs exact %v (rel err %.4f > %.4f)", q*100, got, want, rel, boundedRelErr)
				}
			}
		})
	}
}

// TestDigestMergeOrderFree: in both modes, any merge order or merge
// tree over the same digests gives bit-identical counts, moments,
// extremes and quantiles, and the two modes' moments are equal.
func TestDigestMergeOrderFree(t *testing.T) {
	probes := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for seed := int64(0); seed < 20; seed++ {
		var first [2]Digest // each mode's left-to-right merge
		for _, mode := range []Mode{Bounded, Exact} {
			rng := rand.New(rand.NewSource(seed))
			parts := make([]Digest, 2+rng.Intn(30))
			for p := range parts {
				parts[p] = NewDigest(mode, 0)
				scale := math.Pow(10, rng.Float64()*6-3)
				for i, n := 0, rng.Intn(500); i < n; i++ {
					x := scale * rng.ExpFloat64()
					if rng.Intn(20) == 0 {
						x = 0 // an unqueued wait
					}
					parts[p].Add(x)
				}
			}
			want := mergeTree(parts, rng.Perm(len(parts)), nil)
			first[mode] = want
			for trial := 0; trial < 5; trial++ {
				got := mergeTree(parts, rng.Perm(len(parts)), rng)
				label := fmt.Sprintf("%s seed %d trial %d", mode, seed, trial)
				sameMoments(t, label, &got, &want)
				for _, q := range probes {
					if g, w := got.Quantile(q), want.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s q=%v: %v vs %v", label, q, g, w)
					}
				}
			}
		}
		sameMoments(t, fmt.Sprintf("seed %d exact vs bounded", seed), &first[Exact], &first[Bounded])
	}
}

// sameMoments fails t unless two digests agree bit for bit on their
// count, mean, variance, min and max.
func sameMoments(t *testing.T, label string, got, want *Digest) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N %d vs %d", label, got.N(), want.N())
	}
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"mean", got.Mean(), want.Mean()},
		{"variance", got.Variance(), want.Variance()},
		{"min", got.Min(), want.Min()},
		{"max", got.Max(), want.Max()},
	} {
		if math.Float64bits(m.got) != math.Float64bits(m.want) {
			t.Fatalf("%s: %s %v vs %v", label, m.name, m.got, m.want)
		}
	}
}

// mergeTree merges copies of parts in the given order: left to right
// when rng is nil, else as a random binary tree.
func mergeTree(parts []Digest, order []int, rng *rand.Rand) Digest {
	fresh := func(i int) Digest {
		d := NewDigest(parts[i].Mode(), 0) // empty: Merge must not alias parts[i]
		d.Merge(&parts[i])
		return d
	}
	if rng == nil || len(order) == 1 {
		acc := fresh(order[0])
		for _, i := range order[1:] {
			acc.Merge(&parts[i])
		}
		return acc
	}
	cut := 1 + rng.Intn(len(order)-1)
	left := mergeTree(parts, order[:cut], rng)
	right := mergeTree(parts, order[cut:], rng)
	left.Merge(&right)
	return left
}

// TestDigestMixedMerge: merging an Exact digest with a Bounded one, in
// either direction, equals one bounded digest fed every observation.
func TestDigestMixedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ex, bd, all := NewDigest(Exact, 0), NewDigest(Bounded, 0), NewDigest(Bounded, 0)
	for i := 0; i < 4000; i++ {
		x := rng.ExpFloat64()
		all.Add(x)
		if i%3 == 0 {
			ex.Add(x)
		} else {
			bd.Add(x)
		}
	}
	exIntoBd := NewDigest(Bounded, 0)
	exIntoBd.Merge(&bd)
	exIntoBd.Merge(&ex)
	bdIntoEx := NewDigest(Exact, 0)
	bdIntoEx.Merge(&ex)
	bdIntoEx.Merge(&bd)
	for _, d := range []*Digest{&exIntoBd, &bdIntoEx} {
		if d.Mode() != Bounded || d.N() != all.N() {
			t.Fatalf("mixed merge gave a %s digest of %d, want bounded of %d", d.Mode(), d.N(), all.N())
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			if d.Quantile(q) != all.Quantile(q) {
				t.Errorf("q=%v: mixed merge %v vs single bounded digest %v", q, d.Quantile(q), all.Quantile(q))
			}
		}
	}
	// The exact side stays exact and untouched.
	if ex.Mode() != Exact || ex.N() != 1334 {
		t.Errorf("source exact digest changed: %s, N=%d", ex.Mode(), ex.N())
	}
}

// TestSketchCarry: a bucket count never wraps. Driving a bucket to
// 2³²−1 through the counts slice stands in for 4·10⁹ adds.
func TestSketchCarry(t *testing.T) {
	var s sketch
	s.add(1)
	i := sketchKey(1) - s.lo
	s.counts[i] = math.MaxUint32
	s.add(1)
	if got := s.count(i); got != 1<<32 {
		t.Fatalf("count after carry = %d, want 2^32", got)
	}
	// Growing the range keeps the carried high bits in place.
	s.add(1e-6)
	s.add(1e6)
	i = sketchKey(1) - s.lo
	if got := s.count(i); got != 1<<32 {
		t.Fatalf("count after growing = %d, want 2^32", got)
	}
	// A merge whose sum wraps carries too, on top of the other side's
	// own high bits.
	var o sketch
	o.add(1)
	o.counts[sketchKey(1)-o.lo] = math.MaxUint32
	s.merge(&o)
	if got, want := s.count(i), uint64(1<<32+math.MaxUint32); got != want {
		t.Fatalf("count after merge = %d, want %d", got, want)
	}
	s.merge(&s)
	if got, want := s.count(i), uint64(2*(1<<32+math.MaxUint32)); got != want {
		t.Fatalf("count after self-merge = %d, want %d", got, want)
	}
	// Rank lookups see the full counts: nearly every observation is 1.
	n := int64(s.zero)
	for j := range s.counts {
		n += int64(s.count(j))
	}
	if got := s.quantile(0.5, n, 1e-6, 1e6); math.Abs(got-1) > boundedRelErr {
		t.Errorf("median = %v, want ≈1", got)
	}
}

// TestSketchConstant: a constant stream reads back exactly, the
// midpoint clamped to the true min and max.
func TestSketchConstant(t *testing.T) {
	d := NewDigest(Bounded, 0)
	for i := 0; i < 1000; i++ {
		d.Add(7)
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if got := d.Quantile(q); got != 7 {
			t.Errorf("q=%v of a constant stream = %v, want 7", q, got)
		}
	}
}
