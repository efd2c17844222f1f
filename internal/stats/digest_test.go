package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestDigestZeroValueIsBounded: the zero value collects with the sketch,
// allocated at the first Add, and its quantiles lie within 2⁻⁷ of an
// Exact reference's while its moments match bit for bit.
func TestDigestZeroValueIsBounded(t *testing.T) {
	var d Digest
	if d.Mode() != Bounded || d.sketch != nil {
		t.Fatalf("zero-value digest: mode %s, sketch allocated %v; want an unallocated bounded one", d.Mode(), d.sketch != nil)
	}
	if d.N() != 0 || d.Quantile(0.5) != 0 || d.Box("x").N != 0 {
		t.Error("empty zero-value digest should read as empty")
	}
	e := NewDigest(Exact, 0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		x := 0.02 + 0.1*rng.ExpFloat64()
		d.Add(x)
		e.Add(x)
	}
	if d.N() != e.N() || d.Mean() != e.Mean() || d.Variance() != e.Variance() {
		t.Errorf("moments: n=%d mean=%v var=%v, exact n=%d mean=%v var=%v",
			d.N(), d.Mean(), d.Variance(), e.N(), e.Mean(), e.Variance())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999, 1} {
		exact, got := e.Quantile(q), d.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > boundedRelErr {
			t.Errorf("q=%v: zero-value digest %v vs exact %v (rel err %.5f > 2⁻⁷)", q, got, exact, rel)
		}
	}
}

func TestDigestBoundedTracksMomentsExactly(t *testing.T) {
	d := NewDigest(Bounded, 0)
	var s Stream
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		x := rng.ExpFloat64()
		d.Add(x)
		s.Add(x)
	}
	if d.Mean() != s.Mean() || d.StdDev() != s.StdDev() ||
		d.Min() != s.Min() || d.Max() != s.Max() || int64(d.N()) != s.N() {
		t.Error("bounded digest moments must match a plain Stream bit-for-bit")
	}
}

func TestDigestBoundedQuantileAccuracy(t *testing.T) {
	d := NewDigest(Bounded, 0)
	e := NewDigest(Exact, 100000)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		x := rng.ExpFloat64()
		d.Add(x)
		e.Add(x)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.95, 0.99} {
		exact := e.Quantile(q)
		approx := d.Quantile(q)
		if rel := math.Abs(approx-exact) / exact; rel > 0.01 {
			t.Errorf("q=%v: bounded %v vs exact %v (rel err %.3f)", q, approx, exact, rel)
		}
	}
	if d.Quantile(0) != e.Quantile(0) || d.Quantile(1) != e.Quantile(1) {
		t.Error("bounded min/max quantiles should be exact")
	}
}

func TestDigestExactMerge(t *testing.T) {
	a := NewDigest(Exact, 0)
	b := NewDigest(Exact, 0)
	for i := 1; i <= 50; i++ {
		a.Add(float64(i))
	}
	for i := 51; i <= 100; i++ {
		b.Add(float64(i))
	}
	a.Merge(&b)
	want := NewDigest(Exact, 0)
	for i := 1; i <= 100; i++ {
		want.Add(float64(i))
	}
	if a.N() != 100 || a.Quantile(0.5) != want.Quantile(0.5) || a.Mean() != want.Mean() {
		t.Errorf("exact merge: n=%d median=%v mean=%v", a.N(), a.Quantile(0.5), a.Mean())
	}
}

func TestDigestBoundedMerge(t *testing.T) {
	a := NewDigest(Bounded, 0)
	b := NewDigest(Bounded, 0)
	all := NewDigest(Exact, 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		x := rng.ExpFloat64()
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != 20000 {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 {
		t.Errorf("merged mean %v vs exact %v", a.Mean(), all.Mean())
	}
	for _, q := range []float64{0.5, 0.95} {
		exact := all.Quantile(q)
		if rel := math.Abs(a.Quantile(q)-exact) / exact; rel > 0.01 {
			t.Errorf("merged q=%v: %v vs exact %v", q, a.Quantile(q), exact)
		}
	}
	// Adds after a merge keep feeding the estimate.
	before := a.N()
	a.Add(1)
	if a.N() != before+1 {
		t.Error("Add after Merge lost the observation")
	}
}

func TestDigestMergeIntoEmpty(t *testing.T) {
	var a Digest
	b := NewDigest(Bounded, 0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		b.Add(rng.ExpFloat64())
	}
	a.Merge(&b)
	if a.N() != 5000 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != b.Mean() {
		t.Error("merge into empty digest should preserve the mean exactly")
	}
	if math.Abs(a.Quantile(0.5)-b.Quantile(0.5)) > 1e-12 {
		t.Error("merge into empty digest should carry the sketch over")
	}
}

func TestDigestBox(t *testing.T) {
	ex := NewDigest(Exact, 0)
	bd := NewDigest(Bounded, 0)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		x := rng.NormFloat64()*2 + 10
		ex.Add(x)
		bd.Add(x)
	}
	be, bb := ex.Box("x"), bd.Box("x")
	if be.N != bb.N || be.Min != bb.Min || be.Max != bb.Max {
		t.Error("box N/min/max should agree across modes")
	}
	if math.Abs(be.Median-bb.Median) > 0.05 {
		t.Errorf("box medians: exact %v bounded %v", be.Median, bb.Median)
	}
	if math.Abs(be.Q3-bb.Q3) > 0.05 {
		t.Errorf("box Q3: exact %v bounded %v", be.Q3, bb.Q3)
	}
}

func TestDigestSummarize(t *testing.T) {
	bd := NewDigest(Bounded, 0)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10000; i++ {
		bd.Add(rng.Float64())
	}
	ds := bd.Summarize("u", nil)
	if ds.N != 10000 || len(ds.Quantiles) != 99 {
		t.Fatalf("summary N=%d probes=%d", ds.N, len(ds.Quantiles))
	}
	if math.Abs(ds.Quantile(0.5)-0.5) > 0.03 {
		t.Errorf("uniform median estimate %v", ds.Quantile(0.5))
	}
}

func TestDigestEmpty(t *testing.T) {
	for _, d := range []Digest{NewDigest(Exact, 0), NewDigest(Bounded, 0)} {
		if d.N() != 0 || d.Mean() != 0 || d.Quantile(0.5) != 0 || d.P95() != 0 {
			t.Errorf("empty %s digest should report zeros", d.Mode())
		}
		b := d.Box("empty")
		if b.N != 0 {
			t.Error("empty box should have N=0")
		}
	}
}

// TestDigestBoundedConstantMemory: the whole point — bounded digests do
// not allocate per observation once warmed.
func TestDigestBoundedConstantMemory(t *testing.T) {
	d := NewDigest(Bounded, 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		d.Add(rng.ExpFloat64())
	}
	allocs := testing.AllocsPerRun(100, func() { d.Add(rng.ExpFloat64()) })
	if allocs > 0 {
		t.Errorf("bounded Add allocates %.1f/op, want 0", allocs)
	}
}
