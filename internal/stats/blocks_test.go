package stats

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// blockValues returns n reproducible observations.
func blockValues(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.01 * rng.ExpFloat64()
	}
	return xs
}

// refMean and refStdDev are the math/big reference: the correctly
// rounded mean and the square root of the correctly rounded variance.
func refMean(xs []float64) float64 {
	m, _ := bigMoments(xs)
	return m
}

func refStdDev(xs []float64) float64 {
	_, v := bigMoments(xs)
	return math.Sqrt(v)
}

// refQuantile is the type-7 quantile of an ascending slice.
func refQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 1 || q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// checkLayout checks that every full block is filled to its capacity
// and that capacities double from firstBlock up to blockCap.
func checkLayout(t *testing.T, s *Sample) {
	t.Helper()
	want := firstBlock
	for i, b := range s.full {
		if len(b) != cap(b) || cap(b) != want {
			t.Fatalf("block %d holds %d of %d values, want %d of %d", i, len(b), cap(b), want, want)
		}
		want = min(2*want, blockCap)
	}
	if cap(s.xs) != want {
		t.Fatalf("open block capacity %d, want %d", cap(s.xs), want)
	}
}

// TestSampleBlocksKeepInsertionOrder: values that span many blocks fold
// back in insertion order, and Mean and StdDev, read from the blocks in
// place, are the math/big reference's bit for bit.
func TestSampleBlocksKeepInsertionOrder(t *testing.T) {
	xs := blockValues(1, 5*blockCap+123)
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	checkLayout(t, &s)
	if len(s.full) < 10 || s.N() != len(xs) {
		t.Fatalf("%d values in %d full blocks, want %d values over at least 10", s.N(), len(s.full), len(xs))
	}
	if got, want := s.Mean(), refMean(xs); got != want {
		t.Errorf("mean %v, reference %v", got, want)
	}
	if got, want := s.StdDev(), refStdDev(xs); got != want {
		t.Errorf("stddev %v, reference %v", got, want)
	}
	if !slices.Equal(s.fold(), xs) || s.full != nil {
		t.Error("fold did not leave one slice in insertion order")
	}

	// Mixed Add and AddAll calls of every size keep the order too.
	var m Sample
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < len(xs); {
		k := min(rng.Intn(3*blockCap), len(xs)-i)
		if k%2 == 0 {
			m.Add(xs[i])
			i++
			continue
		}
		m.AddAll(xs[i : i+k])
		i += k
	}
	checkLayout(t, &m)
	if !slices.Equal(m.fold(), xs) {
		t.Error("Add/AddAll mix did not fold in insertion order")
	}
}

// TestSampleQuantilesMatchSortedReference: every quantile equals the
// type-7 interpolation over a sorted copy, bit for bit, at sizes inside
// one block, at block edges and across many blocks.
func TestSampleQuantilesMatchSortedReference(t *testing.T) {
	qs := []float64{0, 0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, firstBlock - 1, firstBlock, firstBlock + 1, 100, blockCap + 1, 3*blockCap + 5} {
		xs := blockValues(int64(n), n)
		var s Sample
		for _, x := range xs {
			s.Add(x)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range qs {
			if got, want := s.Quantile(q), refQuantile(sorted, q); got != want {
				t.Errorf("n=%d q=%v: %v, sorted reference %v", n, q, got, want)
			}
		}
		if !slices.Equal(s.Values(), sorted) {
			t.Errorf("n=%d: Values is not the sorted observations", n)
		}
	}
}

// TestSampleMergeLeavesSourceIntact: Merge copies an unfolded source's
// blocks after the destination's values, and the source keeps its
// blocks and stays readable.
func TestSampleMergeLeavesSourceIntact(t *testing.T) {
	srcVals := blockValues(3, 3*blockCap+17)
	dstVals := blockValues(4, 100)
	var src, dst Sample
	src.AddAll(srcVals)
	dst.AddAll(dstVals)
	blocks := len(src.full)
	dst.Merge(&src)
	if len(src.full) != blocks || blocks == 0 || src.N() != len(srcVals) {
		t.Fatalf("source went from %d to %d full blocks, %d values", blocks, len(src.full), src.N())
	}
	if !slices.Equal(dst.fold(), append(slices.Clone(dstVals), srcVals...)) {
		t.Error("merged sample is not the destination's values then the source's")
	}
	if got, want := src.Mean(), refMean(srcVals); got != want {
		t.Errorf("source mean after the merge %v, want %v", got, want)
	}
	sorted := slices.Sorted(slices.Values(srcVals))
	if got, want := src.Quantile(0.95), refQuantile(sorted, 0.95); got != want {
		t.Errorf("source p95 after the merge %v, want %v", got, want)
	}

	// A sample merged into itself doubles in order.
	var self Sample
	self.AddAll(srcVals)
	self.Merge(&self)
	if !slices.Equal(self.fold(), append(slices.Clone(srcVals), srcVals...)) {
		t.Error("self-merge did not append the sample to itself")
	}

	// An Exact digest spanning blocks folds every block into a Bounded
	// one it merges into.
	exact, fed := NewDigest(Exact, 0), NewDigest(Bounded, 0)
	for _, x := range srcVals {
		exact.Add(x)
		fed.Add(x)
	}
	bounded := NewDigest(Bounded, 0)
	bounded.Merge(&exact)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got, want := bounded.Quantile(q), fed.Quantile(q); got != want {
			t.Errorf("bounded merge of a blocked exact digest: q=%v %v, want %v", q, got, want)
		}
	}
}

// TestSampleAddAllResetZeroAndHint covers the other ways in: AddAll on
// the zero value, Reset and reuse, and NewSample's pre-sized first
// block, which folds without a copy.
func TestSampleAddAllResetZeroAndHint(t *testing.T) {
	xs := blockValues(5, 2*blockCap+9)
	var s Sample
	if s.N() != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("zero sample is not empty")
	}
	s.AddAll(xs)
	checkLayout(t, &s)
	if !slices.Equal(s.fold(), xs) {
		t.Error("AddAll on the zero value lost order")
	}

	s.Reset()
	if s.N() != 0 || s.full != nil || s.Quantile(0.5) != 0 {
		t.Fatalf("Reset left %d values", s.N())
	}
	s.AddAll([]float64{3, 1, 2})
	if !slices.Equal(s.Values(), []float64{1, 2, 3}) || s.Mean() != 2 {
		t.Errorf("reused sample holds %v", s.Values())
	}

	h := NewSample(1000)
	h.AddAll(xs[:1000])
	first := &h.xs[0]
	if h.full != nil || &h.fold()[0] != first {
		t.Error("a sample within its hint did not fold in place")
	}
	h.AddAll(xs[1000:])
	if len(h.full) < 2 || cap(h.full[0]) != 1000 || cap(h.full[1]) != min(2000, blockCap) {
		t.Fatalf("%d blocks after the hint, want the hint's then one of %d", len(h.full), min(2000, blockCap))
	}
	if !slices.Equal(h.fold(), xs) {
		t.Error("growing past the hint lost order")
	}
}

// TestSampleAddAllocations: N adds allocate the N values' 8 B each, the
// unused tail of the open block and the list of blocks, and nothing
// else: no block is regrown or copied.
func TestSampleAddAllocations(t *testing.T) {
	const n = 64*blockCap + 5
	blocks := 0
	for size, held := firstBlock, 0; held < n; size = min(2*size, blockCap) {
		held += size
		blocks++
	}
	var s Sample
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s.Add(float64(i))
	}
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	// The block list regrows by append: at most log2(blocks)+1 arrays
	// of 24-B headers, their sizes summing to under twice the final
	// length, rounded up to size classes. The slack covers what the
	// runtime itself allocates meanwhile (a GC cycle under -race); one
	// regrowth copy of the values would exceed it many times over.
	const slackAllocs, slackBytes = 16, 8192
	maxAllocs := uint64(blocks) + uint64(math.Ceil(math.Log2(float64(blocks)))) + 1 + slackAllocs
	maxBytes := uint64(8*(n+blockCap) + 2*48*blocks + slackBytes)
	if mallocs > maxAllocs || bytes > maxBytes {
		t.Errorf("%d adds made %d allocations of %d B, want at most %d of %d B (%d blocks)",
			n, mallocs, bytes, maxAllocs, maxBytes, blocks)
	}
	t.Logf("%d adds: %d allocations, %d B (%.2f B per value)", n, mallocs, bytes, float64(bytes)/n)
	if s.N() != n || len(s.full)+1 != blocks {
		t.Errorf("%d values in %d blocks, want %d in %d", s.N(), len(s.full)+1, n, blocks)
	}
}

// BenchmarkDigestAddExact times one Exact Add, block allocation
// included: a fresh digest every 2¹⁶ adds keeps the heap small.
func BenchmarkDigestAddExact(b *testing.B) {
	b.ReportAllocs()
	var d Digest
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			d = NewDigest(Exact, 0)
		}
		d.Add(float64(i & 1023))
	}
}
