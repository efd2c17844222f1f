package app

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestInferenceModelCalibration(t *testing.T) {
	m := NewInferenceModel()
	if math.Abs(m.Mu()-SaturationRate) > 1e-9 {
		t.Errorf("Mu = %v, want %v", m.Mu(), SaturationRate)
	}
	if math.Abs(m.MeanServiceTime-1.0/13) > 1e-12 {
		t.Errorf("mean service = %v", m.MeanServiceTime)
	}
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += m.SampleServiceTime(rng)
	}
	if mean := sum / n; math.Abs(mean-1.0/13) > 0.002 {
		t.Errorf("sampled mean = %v, want %v", mean, 1.0/13)
	}
}

func TestInferenceModelWith(t *testing.T) {
	m := NewInferenceModelWith(0.050, 0.5)
	if m.Mu() != 20 {
		t.Errorf("Mu = %v, want 20", m.Mu())
	}
	if m.SCV != 0.5 {
		t.Errorf("SCV = %v", m.SCV)
	}
}

func TestInferenceModelPanics(t *testing.T) {
	for _, c := range []struct{ mean, scv float64 }{{0, 1}, {-1, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewInferenceModelWith(%v,%v) should panic", c.mean, c.scv)
				}
			}()
			NewInferenceModelWith(c.mean, c.scv)
		}()
	}
}

func TestSlowed(t *testing.T) {
	m := NewInferenceModel()
	s := m.Slowed(2)
	if math.Abs(s.MeanServiceTime-2*m.MeanServiceTime) > 1e-12 {
		t.Errorf("slowed mean = %v", s.MeanServiceTime)
	}
	if s.SCV != m.SCV {
		t.Error("slowdown should preserve SCV")
	}
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += s.SampleServiceTime(rng)
	}
	if mean := sum / n; math.Abs(mean-s.MeanServiceTime) > 0.005 {
		t.Errorf("slowed sampled mean = %v, want %v", mean, s.MeanServiceTime)
	}
}

func TestSlowedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive slowdown should panic")
		}
	}()
	NewInferenceModel().Slowed(0)
}

func TestSampleServiceTimePositive(t *testing.T) {
	f := func(seed int64) bool {
		m := NewInferenceModel()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if m.SampleServiceTime(rng) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSleepExecutorDuration(t *testing.T) {
	start := time.Now()
	SleepExecutor{}.Execute(30 * time.Millisecond)
	if d := time.Since(start); d < 28*time.Millisecond {
		t.Errorf("sleep executor returned after %v, want >= 30ms", d)
	}
}

func TestSpinExecutorDuration(t *testing.T) {
	start := time.Now()
	SpinExecutor{}.Execute(20 * time.Millisecond)
	d := time.Since(start)
	if d < 19*time.Millisecond {
		t.Errorf("spin executor returned after %v, want >= 20ms", d)
	}
	if d > 200*time.Millisecond {
		t.Errorf("spin executor overshot badly: %v", d)
	}
}
