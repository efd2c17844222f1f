package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestStreamBasic(t *testing.T) {
	var s Stream
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d, want 5", s.N())
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Variance(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Variance = %v, want 2.5", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
}

func TestStreamEmpty(t *testing.T) {
	var s Stream
	// Every station and site row holds empty streams: keep them small.
	if size := unsafe.Sizeof(s); size > 40 {
		t.Errorf("an empty Stream takes %d B, want at most 40", size)
	}
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 || s.CoV() != 0 {
		t.Error("empty stream should report zeros")
	}
	if s.Min() != 0 || s.Max() != 0 {
		t.Error("empty stream min/max should be 0")
	}
}

func TestStreamSingle(t *testing.T) {
	var s Stream
	s.Add(7)
	if s.Variance() != 0 {
		t.Errorf("single-value variance = %v, want 0", s.Variance())
	}
	if s.Mean() != 7 || s.Min() != 7 || s.Max() != 7 {
		t.Error("single-value moments wrong")
	}
}

// TestStreamMatchesNaive checks the exact sums against the two-pass
// formula on random data.
func TestStreamMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(500)
		xs := make([]float64, n)
		var s Stream
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
			s.Add(xs[i])
		}
		var mean float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		varNaive := m2 / float64(n-1)
		return almostEqual(s.Mean(), mean, 1e-9) && almostEqual(s.Variance(), varNaive, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStreamMergeProperty: merging two streams equals adding all values
// to one stream.
func TestStreamMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := rng.Intn(100), 1+rng.Intn(100)
		var a, b, all Stream
		for i := 0; i < n1; i++ {
			x := rng.ExpFloat64()
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := rng.ExpFloat64() * 3
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almostEqual(a.Mean(), all.Mean(), 1e-9) &&
			almostEqual(a.Variance(), all.Variance(), 1e-9) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamMergeEmpty(t *testing.T) {
	var a, b Stream
	a.Add(1)
	a.Add(2)
	before := a
	a.Merge(&b)
	if a != before {
		t.Error("merging an empty stream changed the receiver")
	}
	b.Merge(&a)
	if b.N() != 2 || b.Mean() != 1.5 {
		t.Error("merging into an empty stream failed")
	}
	// The merge copied a's sums: adding to b leaves a as it was.
	b.Add(10)
	if a.N() != 2 || a.Mean() != 1.5 || b.Mean() != 13.0/3 {
		t.Errorf("after adding to the merged copy: a n=%d mean=%v, b mean=%v", a.N(), a.Mean(), b.Mean())
	}
}

func TestStreamCoVExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Stream
	for i := 0; i < 200000; i++ {
		s.Add(rng.ExpFloat64())
	}
	if !almostEqual(s.CoV(), 1.0, 0.02) {
		t.Errorf("exponential CoV = %v, want ~1", s.CoV())
	}
	if !almostEqual(s.SCV(), 1.0, 0.04) {
		t.Errorf("exponential SCV = %v, want ~1", s.SCV())
	}
}

func TestStreamConfidenceInterval(t *testing.T) {
	var s Stream
	for i := 0; i < 100; i++ {
		s.Add(float64(i % 10))
	}
	ci := s.ConfidenceInterval95()
	if ci <= 0 {
		t.Error("CI should be positive for varied data")
	}
	if ci >= s.StdDev() {
		t.Error("CI half-width should shrink below one stddev at n=100")
	}
}

func TestRateCounter(t *testing.T) {
	var r RateCounter
	if r.Rate() != 0 {
		t.Error("empty rate should be 0")
	}
	for i := 0; i <= 100; i++ {
		r.Observe(float64(i) * 0.5)
	}
	if r.Events() != 101 {
		t.Errorf("Events = %d, want 101", r.Events())
	}
	if !almostEqual(r.Rate(), 101.0/50.0, 1e-12) {
		t.Errorf("Rate = %v, want 2.02", r.Rate())
	}
}

func TestTimeWeightedConstant(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 5)
	w.Finish(10)
	if !almostEqual(w.Average(), 5, 1e-12) {
		t.Errorf("constant average = %v, want 5", w.Average())
	}
}

func TestTimeWeightedSteps(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Set(1, 2) // value 0 on [0,1)
	w.Set(3, 1) // value 2 on [1,3)
	w.Finish(5) // value 1 on [3,5)
	want := (0*1 + 2*2 + 1*2) / 5.0
	if !almostEqual(w.Average(), want, 1e-12) {
		t.Errorf("step average = %v, want %v", w.Average(), want)
	}
	if w.Max() != 2 {
		t.Errorf("Max = %v, want 2", w.Max())
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)
	w.Add(2, 1)  // 2 from t=2
	w.Add(4, -2) // 0 from t=4
	w.Finish(6)
	want := (1*2 + 2*2 + 0*2) / 6.0
	if !almostEqual(w.Average(), want, 1e-12) {
		t.Errorf("Add-based average = %v, want %v", w.Average(), want)
	}
}

func TestTimeWeightedNoObservations(t *testing.T) {
	var w TimeWeighted
	w.Finish(10)
	if w.Average() != 0 {
		t.Error("unobserved time-weighted average should be 0")
	}
}
