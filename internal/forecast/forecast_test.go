package forecast

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNaive(t *testing.T) {
	var n Naive
	if n.Predict() != 0 {
		t.Error("empty naive should predict 0")
	}
	n.Observe(5)
	n.Observe(7)
	if n.Predict() != 7 {
		t.Errorf("naive = %v, want 7", n.Predict())
	}
}

func TestSMA(t *testing.T) {
	s := NewSMA(3)
	if s.Predict() != 0 {
		t.Error("empty SMA should predict 0")
	}
	s.Observe(3)
	if s.Predict() != 3 {
		t.Error("partial window should average observed samples")
	}
	s.Observe(6)
	s.Observe(9)
	if got := s.Predict(); math.Abs(got-6) > 1e-12 {
		t.Errorf("SMA = %v, want 6", got)
	}
	s.Observe(12) // evicts 3
	if got := s.Predict(); math.Abs(got-9) > 1e-12 {
		t.Errorf("rolled SMA = %v, want 9", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Predict()-42) > 1e-9 {
		t.Errorf("EWMA on constant = %v, want 42", e.Predict())
	}
}

// TestEWMABetweenExtremes: the smoothed value always lies within the
// observed range.
func TestEWMABetweenExtremes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEWMA(0.4)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 50; i++ {
			x := rng.Float64() * 100
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
			e.Observe(x)
		}
		p := e.Predict()
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHoltTracksLinearTrend(t *testing.T) {
	h := NewHolt(0.5, 0.5)
	// Perfect ramp: x_t = 10 + 3t. Holt should learn the slope and
	// predict the next point exactly in the limit.
	for i := 0; i < 50; i++ {
		h.Observe(10 + 3*float64(i))
	}
	want := 10 + 3*50.0
	if math.Abs(h.Predict()-want) > 0.5 {
		t.Errorf("Holt on ramp predicts %v, want %v", h.Predict(), want)
	}
}

// TestHoltBeatsEWMAOnRamp: the reason to use Holt — on ramps it must
// outpredict level-only smoothing.
func TestHoltBeatsEWMAOnRamp(t *testing.T) {
	series := make([]float64, 60)
	for i := range series {
		series[i] = 5 + 2*float64(i)
	}
	maeHolt, maeEWMA := oneStepMAE(NewHolt(0.5, 0.5), series), oneStepMAE(NewEWMA(0.5), series)
	if maeHolt >= maeEWMA {
		t.Errorf("Holt MAE %v should beat EWMA %v on a ramp", maeHolt, maeEWMA)
	}
}

// oneStepMAE replays series through f and returns the mean absolute
// error of its one-step predictions, skipping the first observation.
func oneStepMAE(f Forecaster, series []float64) float64 {
	var sum float64
	for i, x := range series {
		if i > 0 {
			sum += math.Abs(f.Predict() - x)
		}
		f.Observe(x)
	}
	return sum / float64(len(series)-1)
}

func TestWindowMax(t *testing.T) {
	w := NewWindowMax(3)
	w.Observe(5)
	w.Observe(2)
	if w.Predict() != 5 {
		t.Errorf("window max = %v, want 5", w.Predict())
	}
	w.Observe(1)
	w.Observe(1) // evicts 5
	if w.Predict() != 2 {
		t.Errorf("rolled window max = %v, want 2", w.Predict())
	}
}

// TestWindowMaxIsConservative: the peak forecaster's prediction is at
// least the mean forecaster's on the same data.
func TestWindowMaxIsConservative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wm := NewWindowMax(8)
		sma := NewSMA(8)
		for i := 0; i < 30; i++ {
			x := rng.ExpFloat64() * 10
			wm.Observe(x)
			sma.Observe(x)
		}
		return wm.Predict() >= sma.Predict()-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSMA(0) },
		func() { NewEWMA(0) },
		func() { NewEWMA(1.5) },
		func() { NewHolt(0, 0.5) },
		func() { NewHolt(0.5, 2) },
		func() { NewWindowMax(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid forecaster construction should panic")
				}
			}()
			fn()
		}()
	}
}

func TestNames(t *testing.T) {
	for _, f := range []Forecaster{
		&Naive{}, NewSMA(4), NewEWMA(0.3), NewHolt(0.4, 0.2), NewWindowMax(5),
	} {
		if f.Name() == "" {
			t.Errorf("%T has empty name", f)
		}
	}
}
