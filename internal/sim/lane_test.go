package sim

import (
	"math/rand"
	"testing"
)

// runLaneSchedule executes a pseudo-random scheduling program with one
// self-re-arming pump event, armed through the arrival lane (lane) or
// as an AtFront calendar event (!lane). Times sit on a quarter-second
// grid, so the pump ties with front and normal events at the same
// instant; bursts of cancels compact the calendar; and the pump
// sometimes lets itself lapse, to be armed again mid-run by an ordinary
// event. All randomness is drawn inside callbacks in execution order,
// so two runs produce identical traces exactly when they execute events
// in the identical order. compactions counts the calendar compactions
// the cancel bursts set off.
func runLaneSchedule(b Backend, seed int64, lane bool) (trace []popTrace, processed uint64, compactions int) {
	e := NewEngineBackend(seed, b)
	rng := rand.New(rand.NewSource(seed))
	var handles []Handle
	nextID, pumps := 0, 0
	pumpArmed := false
	// grid returns a delay that is zero (a same-instant tie) a quarter
	// of the time, and occasionally a long jump past the calendar
	// queue's current year.
	grid := func() float64 {
		d := float64(rng.Intn(4)) * 0.25
		if rng.Intn(20) == 0 {
			d *= 200
		}
		return d
	}
	var body func(id int) Event
	var pump Event
	armPump := func(at float64) {
		pumpArmed = true
		if lane {
			e.ArmLane(at, pump)
		} else {
			e.AtFront(at, pump)
		}
	}
	schedule := func(at float64, front bool) {
		id := nextID
		nextID++
		if front {
			handles = append(handles, e.AtFront(at, body(id)))
		} else {
			handles = append(handles, e.At(at, body(id)))
		}
	}
	act := func(en *Engine) {
		if nextID < 3000 {
			for k := rng.Intn(3); k > 0; k-- {
				schedule(en.Now()+grid(), rng.Intn(3) == 0)
			}
		}
		if len(handles) > 0 && rng.Intn(4) == 0 {
			handles[rng.Intn(len(handles))].Cancel()
		}
		if nextID < 3000 && rng.Intn(30) == 0 {
			// A burst: schedule ten events and cancel them at once.
			first := len(handles)
			for k := 0; k < 10; k++ {
				schedule(en.Now()+grid(), rng.Intn(2) == 0)
			}
			before := en.Canceled()
			for _, h := range handles[first:] {
				h.Cancel()
			}
			if en.Canceled() < before+10 {
				compactions++
			}
		}
	}
	body = func(id int) Event {
		return func(en *Engine) {
			trace = append(trace, popTrace{id: id, at: en.Now()})
			act(en)
			if !pumpArmed && pumps < 400 && rng.Intn(5) == 0 {
				armPump(en.Now() + grid())
			}
		}
	}
	pump = func(en *Engine) {
		pumpArmed = false
		pumps++
		trace = append(trace, popTrace{id: -pumps, at: en.Now()})
		act(en)
		if pumps < 400 && rng.Intn(8) != 0 {
			armPump(en.Now() + grid())
		}
	}
	for i := 0; i < 40; i++ {
		schedule(float64(rng.Intn(40))*0.25, i%5 == 0)
	}
	armPump(float64(rng.Intn(8)) * 0.25)
	e.Run()
	return trace, e.Processed(), compactions
}

// TestLaneMatchesAtFront: on both calendar backends, a pump armed
// through the lane executes in exactly the position the same pump
// takes as an AtFront calendar event, amid same-instant front and
// normal ties, cancels, compactions and mid-run re-arming.
func TestLaneMatchesAtFront(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 25; seed++ {
		want, _, _ := runLaneSchedule(BinaryHeap, seed, false)
		for name, b := range backends {
			for _, lane := range []bool{false, true} {
				got, processed, c := runLaneSchedule(b, seed, lane)
				compactions += c
				if processed != uint64(len(got)) {
					t.Errorf("seed %d %s lane=%v: Processed() = %d, executed %d",
						seed, name, lane, processed, len(got))
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d %s lane=%v: %d events, heap/AtFront reference %d",
						seed, name, lane, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d %s lane=%v: event %d is %+v, reference %+v",
							seed, name, lane, i, got[i], want[i])
					}
				}
			}
		}
		if pumps := countPumps(want); pumps < 20 {
			t.Fatalf("seed %d: only %d pump events; the schedule exercises too little", seed, pumps)
		}
	}
	if compactions == 0 {
		t.Fatal("no cancel burst compacted the calendar")
	}
}

func countPumps(trace []popTrace) int {
	n := 0
	for _, p := range trace {
		if p.id < 0 {
			n++
		}
	}
	return n
}

// TestLaneRunUntilResumes: RunUntil leaves a lane armed past the
// horizon pending and runs it on the next call; a lane event exactly at
// the horizon runs.
func TestLaneRunUntilResumes(t *testing.T) {
	e := NewEngine(1)
	var ran []float64
	record := func(en *Engine) { ran = append(ran, en.Now()) }
	e.At(1, record)
	e.ArmLane(7, record)
	if end := e.RunUntil(5); end != 5 {
		t.Fatalf("RunUntil(5) = %v, want 5", end)
	}
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran %v by t=5, want [1]", ran)
	}
	if end := e.RunUntil(7); end != 7 || len(ran) != 2 || ran[1] != 7 {
		t.Fatalf("RunUntil(7) = %v, ran %v; want 7 and the lane event at 7", end, ran)
	}
	e.ArmLane(9, record)
	if end := e.RunUntil(20); end != 20 || len(ran) != 3 || ran[2] != 9 {
		t.Fatalf("RunUntil(20) = %v, ran %v; want 20 and the lane event at 9", end, ran)
	}
}

// TestLaneStop: Stop inside a lane event halts the run after it, and
// the next Run resumes with the calendar.
func TestLaneStop(t *testing.T) {
	e := NewEngine(1)
	later := false
	e.At(2, func(*Engine) { later = true })
	e.ArmLane(1, func(en *Engine) { en.Stop() })
	if end := e.Run(); end != 1 || later {
		t.Fatalf("Run = %v, later event ran %v; want a stop at 1", end, later)
	}
	if end := e.Run(); end != 2 || !later {
		t.Fatalf("resumed Run = %v, later event ran %v; want 2 and true", end, later)
	}
}

// TestLaneMisusePanics: arming an armed lane and arming it in the past
// are model bugs, so both panic like scheduling in the past does.
func TestLaneMisusePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	e := NewEngine(1)
	e.ArmLane(1, func(*Engine) {})
	mustPanic("arming twice", func() { e.ArmLane(2, func(*Engine) {}) })

	e = NewEngine(1)
	e.At(5, func(en *Engine) {
		mustPanic("arming in the past", func() { en.ArmLane(1, func(*Engine) {}) })
	})
	e.Run()
}

// TestLaneProcessedAndPending: Processed counts lane events; Pending
// counts the calendar only.
func TestLaneProcessedAndPending(t *testing.T) {
	e := NewEngine(1)
	e.At(1, func(*Engine) {})
	e.ArmLane(1, func(en *Engine) {
		if en.Pending() != 1 {
			t.Errorf("Pending() = %d inside the lane event, want 1", en.Pending())
		}
	})
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d with the lane armed, want 1 (calendar only)", e.Pending())
	}
	e.Run()
	if e.Processed() != 2 {
		t.Errorf("Processed() = %d, want 2 (one calendar, one lane event)", e.Processed())
	}
}

// TestLaneNoAlloc: arming and running the lane with a stored Event
// allocates nothing.
func TestLaneNoAlloc(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var fire Event
	fire = func(en *Engine) {
		count++
		if count < 100 {
			en.ArmLane(en.Now()+0.001, fire)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		count = 0
		e.ArmLane(e.Now()+0.001, fire)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("lane arming allocates %.1f/run, want 0", allocs)
	}
}
