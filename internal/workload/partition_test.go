package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func sumsToOne(w []float64) bool {
	var s float64
	for _, x := range w {
		if x < 0 {
			return false
		}
		s += x
	}
	return math.Abs(s-1) < 1e-9
}

func TestUniformWeights(t *testing.T) {
	u := Uniform{K: 5}
	w := u.Weights(0)
	if !sumsToOne(w) {
		t.Fatal("uniform weights must sum to 1")
	}
	for _, x := range w {
		if math.Abs(x-0.2) > 1e-12 {
			t.Fatalf("uniform weight = %v, want 0.2", x)
		}
	}
	if u.Sites() != 5 {
		t.Error("Sites wrong")
	}
}

func TestStaticNormalizes(t *testing.T) {
	s := NewStatic([]float64{2, 2, 4})
	w := s.Weights(0)
	want := []float64{0.25, 0.25, 0.5}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("weights = %v", w)
		}
	}
}

func TestStaticPanics(t *testing.T) {
	for _, in := range [][]float64{{-1, 2}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStatic(%v) should panic", in)
				}
			}()
			NewStatic(in)
		}()
	}
}

// TestZipfProperties: weights sum to 1, are decreasing, and higher s
// concentrates more mass on site 0.
func TestZipfProperties(t *testing.T) {
	f := func(kRaw, sRaw uint8) bool {
		k := 2 + int(kRaw%20)
		s := float64(sRaw%30) / 10
		z := Zipf(k, s)
		w := z.Weights(0)
		if !sumsToOne(w) {
			return false
		}
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Zipf(5, 1.5).W[0] <= Zipf(5, 0.5).W[0] {
		t.Error("higher Zipf exponent should concentrate load")
	}
	for _, w := range Zipf(5, 0).W {
		if math.Abs(w-0.2) > 1e-12 {
			t.Errorf("Zipf(s=0) weight %v, want uniform 0.2", w)
		}
	}
}
