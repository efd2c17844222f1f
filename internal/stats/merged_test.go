package stats

import (
	"math"
	"math/rand"
	"testing"
)

// mergedProbes are the quantiles the Merged tests compare, ends
// included.
var mergedProbes = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// sameDigest fails t unless got and want agree bit for bit on their
// mode, count, moments and every probed quantile.
func sameDigest(t *testing.T, label string, got, want *Digest) {
	t.Helper()
	if got.Mode() != want.Mode() || got.N() != want.N() {
		t.Fatalf("%s: %s digest of %d, want %s of %d", label, got.Mode(), got.N(), want.Mode(), want.N())
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
			t.Errorf("%s: %s %v, want %v", label, m.name, m.got, m.want)
		}
	}
	for _, q := range mergedProbes {
		if g, w := got.Quantile(q), want.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: q=%v %v, want %v", label, q, g, w)
		}
	}
}

// sequential merges parts, in order, into an empty Exact digest: the
// reference Merged must reproduce.
func sequential(parts []*Digest) Digest {
	d := NewDigest(Exact, 0)
	for _, p := range parts {
		d.Merge(p)
	}
	return d
}

// mergedParts returns k digests in the modes modeOf picks, every third
// one empty, the others holding exponential samples of varied size and
// scale.
func mergedParts(seed int64, k int, modeOf func(i int) Mode) []*Digest {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]*Digest, k)
	for i := range parts {
		d := NewDigest(modeOf(i), 0)
		if i%3 != 1 {
			scale := 0.005 * float64(1+i%4)
			for j := 0; j < 200+rng.Intn(800); j++ {
				d.Add(scale * rng.ExpFloat64())
			}
		}
		parts[i] = &d
	}
	return parts
}

func TestMergedNoParts(t *testing.T) {
	d := Merged()
	if d.Mode() != Bounded || d.N() != 0 || d.Quantile(0.5) != 0 {
		t.Errorf("Merged() = %s digest of %d, want the empty zero value", d.Mode(), d.N())
	}
}

// TestMergedAllEmpty: with no observations anywhere, the result is an
// empty digest in the parts' mode, not the zero value's Bounded.
func TestMergedAllEmpty(t *testing.T) {
	for _, mode := range []Mode{Exact, Bounded} {
		a, b := NewDigest(mode, 0), NewDigest(mode, 16)
		d := Merged(&a, &b)
		if d.Mode() != mode || d.N() != 0 || d.Mean() != 0 || d.Quantile(0.95) != 0 {
			t.Errorf("%s: Merged of empties = %s digest of %d", mode, d.Mode(), d.N())
		}
		// It is a new digest: adding to it leaves the parts empty.
		d.Add(1)
		if a.N() != 0 || b.N() != 0 {
			t.Errorf("%s: adding to the merge of empties reached a part", mode)
		}
	}
}

// TestMergedSharesLonePart: one non-empty part among empty ones comes
// back as itself — the same retained sample or sketch, no copy — and
// reads bit for bit as that part and as a sequential merge.
func TestMergedSharesLonePart(t *testing.T) {
	for _, mode := range []Mode{Exact, Bounded} {
		before, lone, after := NewDigest(mode, 0), NewDigest(mode, 0), NewDigest(mode, 0)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 1000; i++ {
			lone.Add(rng.ExpFloat64())
		}
		parts := []*Digest{&before, &lone, &after}
		got := Merged(parts...)
		if got.sample != lone.sample || got.sketch != lone.sketch {
			t.Errorf("%s: Merged copied its only non-empty part", mode)
		}
		sameDigest(t, mode.String()+" lone part", &got, &lone)
		want := sequential(parts)
		sameDigest(t, mode.String()+" lone part vs sequential merge", &got, &want)
	}
}

// TestMergedMatchesSequentialMerge: k parts, empty ones among them,
// merge exactly as sequential Merge calls into an empty digest do —
// counts, moments and quantiles bit for bit — in exact, bounded and
// mixed modes, and leave every part untouched.
func TestMergedMatchesSequentialMerge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		modeOf func(i int) Mode
	}{
		{"exact", func(int) Mode { return Exact }},
		{"bounded", func(int) Mode { return Bounded }},
		{"mixed", func(i int) Mode { return Mode(i % 2) }},
		{"bounded first", func(i int) Mode {
			if i == 0 {
				return Bounded
			}
			return Exact
		}},
	} {
		for _, k := range []int{2, 5, 7} {
			parts := mergedParts(int64(10+k), k, tc.modeOf)
			var before []int
			for _, p := range parts {
				before = append(before, p.N())
			}
			got := Merged(parts...)
			want := sequential(parts)
			sameDigest(t, tc.name, &got, &want)
			for i, p := range parts {
				if p.N() != before[i] {
					t.Errorf("%s k=%d: part %d went from %d to %d observations", tc.name, k, i, before[i], p.N())
				}
			}
		}
	}
}

// TestMergedExactAllocatesOnce: a k-part Exact merge sizes its sample
// once, at the final count — one Sample and one backing array — where
// growing it merge by merge reallocates as it goes.
func TestMergedExactAllocatesOnce(t *testing.T) {
	parts := mergedParts(3, 8, func(int) Mode { return Exact })
	total := 0
	for _, p := range parts {
		total += p.N()
	}
	var d Digest
	allocs := testing.AllocsPerRun(20, func() { d = Merged(parts...) })
	if allocs > 2 {
		t.Errorf("Merged of 8 exact parts made %v allocations, want at most 2", allocs)
	}
	if d.N() != total || cap(d.sample.xs) != total {
		t.Errorf("merged sample holds %d with capacity %d, want %d", d.N(), cap(d.sample.xs), total)
	}
}
