package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		e.At(at, func(*Engine) { order = append(order, at) })
	}
	end := e.Run()
	if end != 5 {
		t.Errorf("final time = %v, want 5", end)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("ran %d events, want 5", len(order))
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		e.At(1.0, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	e.After(1, func(en *Engine) {
		times = append(times, en.Now())
		en.After(2, func(en2 *Engine) {
			times = append(times, en2.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("nested schedule times = %v, want [1 3]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(5, func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		en.At(1, func(*Engine) {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.After(-1, func(*Engine) {})
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.At(1, func(*Engine) { ran = true })
	h.Cancel()
	e.Run()
	if ran {
		t.Error("canceled event still ran")
	}
	// Double cancel is a no-op.
	h.Cancel()
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func(en *Engine) {
			count++
			if count == 3 {
				en.Stop()
			}
		})
	}
	end := e.Run()
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	if end != 3 {
		t.Errorf("stopped at t=%v, want 3", end)
	}
	// Run resumes with the remaining events.
	e.Run()
	if count != 10 {
		t.Errorf("resume ran %d total, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func(*Engine) { count++ })
	}
	end := e.RunUntil(5.5)
	if count != 5 {
		t.Errorf("ran %d events before horizon, want 5", count)
	}
	if end != 5.5 {
		t.Errorf("RunUntil returned %v, want 5.5", end)
	}
	// Remaining events still pending.
	if e.Pending() == 0 {
		t.Error("events after horizon should remain")
	}
	e.Run()
	if count != 10 {
		t.Errorf("total = %d, want 10", count)
	}
}

func TestRunUntilEmptyCalendar(t *testing.T) {
	e := NewEngine(1)
	e.At(1, func(*Engine) {})
	end := e.RunUntil(100)
	if end != 100 {
		t.Errorf("drained RunUntil should advance to horizon, got %v", end)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var fires []float64
	tk := e.Every(2, func(en *Engine) {
		fires = append(fires, en.Now())
		if len(fires) == 4 {
			en.Stop()
		}
	})
	_ = tk
	e.RunUntil(100)
	want := []float64{2, 4, 6, 8}
	if len(fires) < 4 {
		t.Fatalf("ticker fired %d times, want >= 4", len(fires))
	}
	for i, w := range want {
		if fires[i] != w {
			t.Errorf("fire %d at %v, want %v", i, fires[i], w)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	var count int
	var tk *Ticker
	tk = e.Every(1, func(*Engine) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(50)
	if count != 3 {
		t.Errorf("ticker fired %d times after Stop, want 3", count)
	}
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.After(float64(i), func(*Engine) {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Errorf("Processed = %d, want 7", e.Processed())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(7)
		rng := dist.NewRand(7)
		var times []float64
		var schedule func(en *Engine)
		n := 0
		schedule = func(en *Engine) {
			times = append(times, en.Now())
			n++
			if n < 100 {
				en.After(rng.ExpFloat64(), schedule)
			}
		}
		e.After(0, schedule)
		e.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestTimeMonotone: with random scheduling patterns, observed event times
// never decrease.
func TestTimeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed))
		last := -1.0
		ok := true
		for i := 0; i < 50; i++ {
			e.At(rng.Float64()*100, func(en *Engine) {
				if en.Now() < last {
					ok = false
				}
				last = en.Now()
				if rng.Float64() < 0.5 {
					en.After(rng.Float64(), func(en2 *Engine) {
						if en2.Now() < last {
							ok = false
						}
						last = en2.Now()
					})
				}
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
