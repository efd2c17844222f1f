package queue

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/theory"
)

// streams returns a function that derives one independent random
// stream from seed per call.
func streams(seed int64) func() *rand.Rand {
	root := dist.NewRand(seed)
	return func() *rand.Rand { return dist.NewRand(root.Int63()) }
}

// driveMM feeds a station with Poisson arrivals and exponential service
// for the given duration and returns it finished. done, when non-nil,
// receives every completed request.
func driveMM(t *testing.T, servers int, lambda, mu, duration float64, disc Discipline, seed int64, done Sink) *Station {
	t.Helper()
	eng := sim.NewEngine(seed)
	st := NewStation(eng, "test", servers, disc)
	st.SetWarmup(duration / 10)
	next := streams(seed)
	arrRng := next()
	svcRng := next()

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

// TestSetSummaryMode: a station's wait digest is bounded by default,
// SetSummaryMode(stats.Exact) switches it before the run, and switching
// once a wait has been recorded panics.
func TestSetSummaryMode(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "modes", 1, FCFS)
	if m := st.Metrics().Wait.Mode(); m != stats.Bounded {
		t.Fatalf("default wait digest is %s, want bounded", m)
	}
	st.SetSummaryMode(stats.Exact)
	eng.At(0, func(*sim.Engine) { st.Arrive(&Request{ID: 1, ServiceTime: 1}) })
	eng.Run()
	if w := st.Metrics().Wait; w.Mode() != stats.Exact || w.N() != 1 {
		t.Fatalf("after SetSummaryMode(Exact) and one request: %s digest of %d", w.Mode(), w.N())
	}
	defer func() {
		if recover() == nil {
			t.Error("SetSummaryMode after a recorded wait should panic")
		}
	}()
	st.SetSummaryMode(stats.Bounded)
}

// TestWaitInto: stations handed one digest add every measured wait to
// it, in completion order across stations, and keep none of their own;
// a wait that completes before the warmup is still dropped.
func TestWaitInto(t *testing.T) {
	eng := sim.NewEngine(1)
	shared := stats.NewDigest(stats.Exact, 0)
	a, b := NewStation(eng, "a", 1, FCFS), NewStation(eng, "b", 1, FCFS)
	for _, st := range []*Station{a, b} {
		st.SetWarmup(2.5)
		st.WaitInto(&shared)
	}
	// Service 2 everywhere. a: arrivals at 0, 0, 0.5 complete at 2 (wait
	// 0, before the warmup), 4 (wait 2) and 6 (wait 3.5); b: arrivals at
	// 1, 1.5 complete at 3 (wait 0) and 5 (wait 1.5).
	for _, arr := range []struct {
		at float64
		st *Station
	}{{0, a}, {0, a}, {0.5, a}, {1, b}, {1.5, b}} {
		eng.At(arr.at, func(*sim.Engine) { arr.st.Arrive(&Request{ServiceTime: 2}) })
	}
	eng.Run()
	if na, nb := a.Metrics().Wait.N(), b.Metrics().Wait.N(); na != 0 || nb != 0 {
		t.Errorf("own wait digests hold %d and %d waits, want none", na, nb)
	}
	want := stats.NewDigest(stats.Exact, 0)
	for _, w := range []float64{0, 2, 1.5, 3.5} { // completion order
		want.Add(w)
	}
	if shared.N() != want.N() || shared.Mean() != want.Mean() || shared.Variance() != want.Variance() ||
		shared.Max() != want.Max() {
		t.Errorf("shared digest n=%d mean=%v var=%v max=%v, want n=%d mean=%v var=%v max=%v",
			shared.N(), shared.Mean(), shared.Variance(), shared.Max(),
			want.N(), want.Mean(), want.Variance(), want.Max())
	}
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
	arrRng := streams(21)()
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

// fcfsLine is the Done sink of TestFCFSDeepLineDrainsInOrder. It checks
// that each served request is the next in arrival order and that
// QueueLength and Load count the requests still in the station, counts
// the line's compactions, and re-admits each served request as a new
// arrival until limit requests have arrived.
type fcfsLine struct {
	st                     *Station
	arrived, served, limit uint64
	lastHead, compactions  int
	bad                    bool
}

func (l *fcfsLine) Consume(_ *sim.Engine, r *Request) {
	l.served++
	inStation := int(l.arrived - l.served)
	if r.ID != l.served || l.st.Load() != inStation || l.st.QueueLength() != inStation-l.st.Busy() {
		l.bad = true
	}
	if l.st.head < l.lastHead {
		l.compactions++
	}
	l.lastHead = l.st.head
	if l.arrived < l.limit {
		l.arrived++
		r.ID = l.arrived
		l.st.Arrive(r)
	}
}

// TestFCFSDeepLineDrainsInOrder: an FCFS line 10⁴ deep, which serves
// one request and admits one at every completion for 3·10⁴ completions
// and then drains, serves in arrival order, with QueueLength and Load
// right at every completion, across the compactions of its storage.
// Once its storage has grown, a whole cycle allocates nothing.
func TestFCFSDeepLineDrainsInOrder(t *testing.T) {
	const depth = 10000
	eng := sim.NewEngine(1)
	st := NewStation(eng, "line", 1, FCFS)
	l := &fcfsLine{st: st, limit: 4 * depth}
	reqs := make([]Request, depth)
	cycle := func() {
		l.arrived, l.served, l.lastHead = 0, 0, st.head
		for i := range reqs {
			l.arrived++
			reqs[i] = Request{ID: l.arrived, ServiceTime: 0.001, Done: l}
			st.Arrive(&reqs[i])
		}
		if st.QueueLength() != depth-1 || st.Load() != depth {
			t.Fatalf("filled line: QueueLength %d, Load %d; want %d and %d", st.QueueLength(), st.Load(), depth-1, depth)
		}
		eng.Run()
	}
	cycle()
	if l.bad || l.served != l.limit || st.Load() != 0 {
		t.Fatalf("served %d of %d (out of order or miscounted: %v), Load %d after the drain", l.served, l.limit, l.bad, st.Load())
	}
	t.Logf("%d compactions; %d slots of line storage", l.compactions, cap(st.waiting))
	if l.compactions == 0 {
		t.Fatal("the line never compacted")
	}
	if c := cap(st.waiting); c > 4*depth {
		t.Errorf("line storage holds %d slots for %d waiting requests", c, depth)
	}
	if allocs := testing.AllocsPerRun(2, cycle); allocs != 0 {
		t.Errorf("a cycle on grown storage allocates %.0f times, want 0", allocs)
	}
	if l.bad {
		t.Error("a later cycle served out of order or miscounted")
	}
}
