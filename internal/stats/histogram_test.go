package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{0, 0.5, 1, 5.5, 9.99} {
		h.Add(x)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if h.Count(0) != 2 { // 0 and 0.5
		t.Errorf("bin 0 = %d, want 2", h.Count(0))
	}
	if h.Count(1) != 1 || h.Count(5) != 1 || h.Count(9) != 1 {
		t.Error("values landed in wrong bins")
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(2)
	h.Add(1) // hi is exclusive
	if h.Underflow() != 1 {
		t.Errorf("underflow = %d, want 1", h.Underflow())
	}
	if h.Overflow() != 2 {
		t.Errorf("overflow = %d, want 2", h.Overflow())
	}
	if h.N() != 3 {
		t.Errorf("N = %d, want 3", h.N())
	}
}

// TestHistogramConservation: every observation is counted exactly once.
func TestHistogramConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(-1, 1, 16)
		n := rng.Intn(1000)
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64())
		}
		var binned int64
		for _, c := range h.Bins() {
			binned += c
		}
		return binned+h.Underflow()+h.Overflow() == int64(n) && h.N() == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Errorf("median = %v, want ~50", med)
	}
	p95 := h.Quantile(0.95)
	if p95 < 90 || p95 > 100 {
		t.Errorf("p95 = %v, want ~95", p95)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if !strings.Contains(h.Render(20), "empty") {
		t.Error("empty histogram should render a placeholder")
	}
	h.Add(1)
	h.Add(1.2)
	h.Add(9)
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Error("render should contain bars")
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid histogram should panic")
		}
	}()
	NewHistogram(5, 1, 10)
}
