package queue

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
)

// driveMM feeds a station with Poisson arrivals and exponential service
// for the given duration and returns it finished. done, when non-nil,
// receives every completed request.
func driveMM(t *testing.T, servers int, lambda, mu, duration float64, disc Discipline, seed int64, done Sink) *Station {
	t.Helper()
	eng := sim.NewEngine(seed)
	st := NewStation(eng, "test", servers, disc)
	st.SetWarmup(duration / 10)
	arrRng := eng.NewStream()
	svcRng := eng.NewStream()

	var id uint64
	var schedule func(e *sim.Engine)
	schedule = func(e *sim.Engine) {
		if e.Now() > duration {
			return
		}
		id++
		st.Arrive(&Request{ID: id, ServiceTime: svcRng.ExpFloat64() / mu, Done: done})
		e.After(arrRng.ExpFloat64()/lambda, schedule)
	}
	eng.After(arrRng.ExpFloat64()/lambda, schedule)
	eng.Run()
	st.Finish()
	return st
}

// TestMM1WaitMatchesTheory validates the simulator against the exact
// M/M/1 queueing delay — the foundation of every edge-site result.
func TestMM1WaitMatchesTheory(t *testing.T) {
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.85} {
		mu := 13.0
		st := driveMM(t, 1, rho*mu, mu, 8000, FCFS, 42, nil)
		want := theory.MM1Wait(rho, mu)
		got := st.Metrics().Wait.Mean()
		if math.Abs(got-want) > 0.12*want+0.001 {
			t.Errorf("rho=%v: simulated wait %.4fs vs M/M/1 %.4fs", rho, got, want)
		}
	}
}

// TestMMcWaitMatchesErlangC validates the multi-server station against
// the exact M/M/c wait — the cloud model.
func TestMMcWaitMatchesErlangC(t *testing.T) {
	for _, c := range []int{2, 5, 10} {
		rho := 0.8
		mu := 13.0
		st := driveMM(t, c, rho*float64(c)*mu, mu, 6000, FCFS, 7, nil)
		want := theory.MMcWait(c, rho, mu)
		got := st.Metrics().Wait.Mean()
		if math.Abs(got-want) > 0.15*want+0.001 {
			t.Errorf("c=%d: simulated wait %.4fs vs M/M/c %.4fs", c, got, want)
		}
	}
}

// TestUtilizationMatchesOffered: measured busy fraction equals λ/(cμ).
func TestUtilizationMatchesOffered(t *testing.T) {
	mu := 10.0
	st := driveMM(t, 3, 18, mu, 4000, FCFS, 3, nil)
	got := st.Metrics().Utilization(3)
	want := 18.0 / (3 * mu)
	if math.Abs(got-want) > 0.03 {
		t.Errorf("utilization %.3f, want %.3f", got, want)
	}
}

// TestLittlesLaw: Lq = λ·Wq must hold for the simulated station.
func TestLittlesLaw(t *testing.T) {
	lambda, mu := 9.0, 13.0
	st := driveMM(t, 1, lambda, mu, 8000, FCFS, 11, nil)
	m := st.Metrics()
	lq := m.QueueLen.Average()
	wq := m.Wait.Mean()
	measuredLambda := m.Arrivals.Rate()
	if measuredLambda == 0 {
		t.Fatal("no arrivals measured")
	}
	want := measuredLambda * wq
	if math.Abs(lq-want) > 0.12*want+0.02 {
		t.Errorf("Little's law violated: Lq=%.3f, λW=%.3f", lq, want)
	}
}

// TestWorkConservation: mean sojourn = mean wait + mean service, with
// the sojourns and services taken from the completed requests and the
// wait from the station's digest over the same post-warmup completions.
func TestWorkConservation(t *testing.T) {
	const duration = 2000
	var soj, svc stats.Stream
	st := driveMM(t, 2, 20, 13, duration, FCFS, 5, DoneFunc(func(e *sim.Engine, r *Request) {
		if e.Now() >= duration/10 {
			soj.Add(r.Sojourn())
			svc.Add(r.ServiceTime)
		}
	}))
	if n := int64(st.Metrics().Wait.N()); n != soj.N() {
		t.Fatalf("wait digest holds %d observations, %d requests completed after warmup", n, soj.N())
	}
	lhs := soj.Mean()
	rhs := st.Metrics().Wait.Mean() + svc.Mean()
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Errorf("sojourn %.6f != wait+service %.6f", lhs, rhs)
	}
}

func TestFCFSOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "fcfs", 1, FCFS)
	var completions []uint64
	mk := func(id uint64, svc float64) *Request {
		return &Request{ID: id, ServiceTime: svc, Done: DoneFunc(func(_ *sim.Engine, r *Request) {
			completions = append(completions, r.ID)
		})}
	}
	eng.At(0, func(*sim.Engine) { st.Arrive(mk(1, 10)) })
	eng.At(1, func(*sim.Engine) { st.Arrive(mk(2, 1)) })
	eng.At(2, func(*sim.Engine) { st.Arrive(mk(3, 1)) })
	eng.Run()
	want := []uint64{1, 2, 3}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("FCFS completions %v, want %v", completions, want)
		}
	}
}

func TestLIFOOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "lifo", 1, LIFO)
	var completions []uint64
	mk := func(id uint64, svc float64) *Request {
		return &Request{ID: id, ServiceTime: svc, Done: DoneFunc(func(_ *sim.Engine, r *Request) {
			completions = append(completions, r.ID)
		})}
	}
	eng.At(0, func(*sim.Engine) { st.Arrive(mk(1, 10)) })
	eng.At(1, func(*sim.Engine) { st.Arrive(mk(2, 1)) })
	eng.At(2, func(*sim.Engine) { st.Arrive(mk(3, 1)) })
	eng.Run()
	// Request 1 serves first (empty system); then LIFO serves 3 before 2.
	want := []uint64{1, 3, 2}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("LIFO completions %v, want %v", completions, want)
		}
	}
}

func TestSJFOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "sjf", 1, SJF)
	var completions []uint64
	mk := func(id uint64, svc float64) *Request {
		return &Request{ID: id, ServiceTime: svc, Done: DoneFunc(func(_ *sim.Engine, r *Request) {
			completions = append(completions, r.ID)
		})}
	}
	eng.At(0, func(*sim.Engine) { st.Arrive(mk(1, 10)) })
	eng.At(1, func(*sim.Engine) { st.Arrive(mk(2, 5)) })
	eng.At(2, func(*sim.Engine) { st.Arrive(mk(3, 1)) })
	eng.At(3, func(*sim.Engine) { st.Arrive(mk(4, 3)) })
	eng.Run()
	// After 1 finishes, shortest first: 3 (1s), 4 (3s), 2 (5s).
	want := []uint64{1, 3, 4, 2}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("SJF completions %v, want %v", completions, want)
		}
	}
}

func TestRequestAccessors(t *testing.T) {
	r := &Request{Arrival: 10, Start: 12, Departure: 15, NetworkRTT: 0.025}
	if r.Wait() != 2 {
		t.Errorf("Wait = %v, want 2", r.Wait())
	}
	if r.Sojourn() != 5 {
		t.Errorf("Sojourn = %v, want 5", r.Sojourn())
	}
	if !almost(r.EndToEnd(), 5.025) {
		t.Errorf("EndToEnd = %v, want 5.025", r.EndToEnd())
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWarmupDiscardsEarlyMetrics(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "warm", 1, FCFS)
	st.SetWarmup(100)
	eng.At(0, func(*sim.Engine) { st.Arrive(&Request{ID: 1, ServiceTime: 1}) })
	eng.At(200, func(*sim.Engine) { st.Arrive(&Request{ID: 2, ServiceTime: 1}) })
	eng.Run()
	st.Finish()
	if n := st.Metrics().Wait.N(); n != 1 {
		t.Errorf("recorded %d waits, want 1 (warmup discarded)", n)
	}
	if st.TotalArrivals() != 2 {
		t.Errorf("TotalArrivals = %d, want 2", st.TotalArrivals())
	}
}

func TestStationLoadAndBusy(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "load", 2, FCFS)
	eng.At(0, func(*sim.Engine) {
		for i := 0; i < 5; i++ {
			st.Arrive(&Request{ID: uint64(i), ServiceTime: 10})
		}
		if st.Busy() != 2 {
			t.Errorf("Busy = %d, want 2", st.Busy())
		}
		if st.QueueLength() != 3 {
			t.Errorf("QueueLength = %d, want 3", st.QueueLength())
		}
		if st.Load() != 5 {
			t.Errorf("Load = %d, want 5", st.Load())
		}
	})
	eng.Run()
}

func TestStationPanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero servers should panic")
		}
	}()
	NewStation(sim.NewEngine(1), "bad", 0, FCFS)
}

// TestInterArrivalSCV: the inter-arrival SCV of a Poisson feed, read
// from the arrival times the station stamps, is ~1. One FCFS server
// completes requests in arrival order.
func TestInterArrivalSCV(t *testing.T) {
	var gaps stats.Stream
	last := -1.0
	driveMM(t, 1, 5, 13, 4000, FCFS, 9, DoneFunc(func(_ *sim.Engine, r *Request) {
		if last >= 0 {
			gaps.Add(r.Arrival - last)
		}
		last = r.Arrival
	}))
	scv := gaps.SCV()
	if math.Abs(scv-1) > 0.12 {
		t.Errorf("Poisson inter-arrival SCV = %v, want ~1", scv)
	}
}

// TestMD1HalvesWait: deterministic service should halve the M/M/1 wait
// (Pollaczek–Khinchine), confirming the station honors general service
// distributions.
func TestMD1HalvesWait(t *testing.T) {
	eng := sim.NewEngine(21)
	mu := 13.0
	rho := 0.8
	st := NewStation(eng, "md1", 1, FCFS)
	st.SetWarmup(300)
	arrRng := eng.NewStream()
	var schedule func(e *sim.Engine)
	schedule = func(e *sim.Engine) {
		if e.Now() > 6000 {
			return
		}
		st.Arrive(&Request{ServiceTime: 1 / mu})
		e.After(arrRng.ExpFloat64()/(rho*mu), schedule)
	}
	eng.After(0, schedule)
	eng.Run()
	st.Finish()
	want := theory.MD1Wait(rho, mu)
	got := st.Metrics().Wait.Mean()
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("M/D/1 wait %.4f, want %.4f", got, want)
	}
}

func TestDisciplineString(t *testing.T) {
	if FCFS.String() != "FCFS" || LIFO.String() != "LIFO" || SJF.String() != "SJF" {
		t.Error("discipline names wrong")
	}
	if Discipline(99).String() == "" {
		t.Error("unknown discipline should still stringify")
	}
}

// TestMeanWaitInvariantUnderDisciplineMM: for M/M/1, FCFS and LIFO have
// the same mean wait (though different variance) — a classic queueing
// invariant that exercises both disciplines deeply.
func TestMeanWaitInvariantUnderDisciplineMM(t *testing.T) {
	fc := driveMM(t, 1, 9, 13, 8000, FCFS, 33, nil)
	lf := driveMM(t, 1, 9, 13, 8000, LIFO, 33, nil)
	wF := fc.Metrics().Wait.Mean()
	wL := lf.Metrics().Wait.Mean()
	if math.Abs(wF-wL) > 0.25*wF+0.002 {
		t.Errorf("FCFS mean wait %.4f vs LIFO %.4f should match", wF, wL)
	}
	// But LIFO's wait variance must exceed FCFS's.
	vF := fc.Metrics().Wait.StdDev()
	vL := lf.Metrics().Wait.StdDev()
	if vL <= vF {
		t.Errorf("LIFO wait sd %.4f should exceed FCFS %.4f", vL, vF)
	}
}
