package lb

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/queue"
	"repro/internal/sim"
)

// streams returns a function that derives one independent random
// stream from seed per call.
func streams(seed int64) func() *rand.Rand {
	root := dist.NewRand(seed)
	return func() *rand.Rand { return dist.NewRand(root.Int63()) }
}

func makeStations(eng *sim.Engine, n int) ([]*queue.Station, []queue.Server) {
	stations := make([]*queue.Station, n)
	servers := make([]queue.Server, n)
	for i := range stations {
		stations[i] = queue.NewStation(eng, "s", 1, queue.FCFS)
		servers[i] = stations[i]
	}
	return stations, servers
}

func TestRoundRobinCycles(t *testing.T) {
	eng := sim.NewEngine(1)
	stations, servers := makeStations(eng, 3)
	d := NewRoundRobin(servers)
	eng.At(0, func(*sim.Engine) {
		for i := 0; i < 6; i++ {
			d.Dispatch(&queue.Request{ServiceTime: 100})
		}
	})
	eng.RunUntil(1)
	for i, s := range stations {
		if s.TotalArrivals() != 2 {
			t.Errorf("station %d got %d, want 2", i, s.TotalArrivals())
		}
	}
	if d.Name() != "round-robin" {
		t.Error("name wrong")
	}
}

func TestLeastConnectionsPicksIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	stations, servers := makeStations(eng, 3)
	d := NewLeastConnections(servers, streams(1)())
	eng.At(0, func(*sim.Engine) {
		// Preload stations 0 and 1.
		stations[0].Arrive(&queue.Request{ServiceTime: 100})
		stations[1].Arrive(&queue.Request{ServiceTime: 100})
		d.Dispatch(&queue.Request{ServiceTime: 100})
	})
	eng.RunUntil(1)
	if stations[2].TotalArrivals() != 1 {
		t.Error("least-connections should pick the idle station")
	}
}

func TestPowerOfTwoAndRandomCoverAll(t *testing.T) {
	eng := sim.NewEngine(1)
	stations, servers := makeStations(eng, 4)
	next := streams(1)
	p2 := NewPowerOfTwo(servers, next())
	rnd := NewRandom(servers, next())
	eng.At(0, func(*sim.Engine) {
		for i := 0; i < 200; i++ {
			p2.Dispatch(&queue.Request{ServiceTime: 0.001})
			rnd.Dispatch(&queue.Request{ServiceTime: 0.001})
		}
	})
	eng.Run()
	for i, s := range stations {
		if s.TotalArrivals() == 0 {
			t.Errorf("station %d never used", i)
		}
	}
}

func TestPowerOfTwoSingleStation(t *testing.T) {
	eng := sim.NewEngine(1)
	stations, servers := makeStations(eng, 1)
	d := NewPowerOfTwo(servers, streams(1)())
	eng.At(0, func(*sim.Engine) { d.Dispatch(&queue.Request{ServiceTime: 1}) })
	eng.Run()
	if stations[0].TotalArrivals() != 1 {
		t.Error("single-station po2 should route to it")
	}
}

// TestDispatcherQualityOrdering: with Poisson arrivals at high load,
// mean waits should order central-queue-like policies best to random
// worst: least-conn ≤ po2 ≤ random. This is the ablation behind
// the cloud model choice.
func TestDispatcherQualityOrdering(t *testing.T) {
	run := func(mk func(servers []queue.Server, rng *rand.Rand) Dispatcher) float64 {
		eng := sim.NewEngine(42)
		stations, servers := makeStations(eng, 5)
		next := streams(42)
		d := mk(servers, next())
		arrRng := next()
		svcRng := next()
		lambda, mu := 55.0, 13.0 // ρ≈0.85 over 5 servers
		var schedule func(e *sim.Engine)
		schedule = func(e *sim.Engine) {
			if e.Now() > 2000 {
				return
			}
			d.Dispatch(&queue.Request{ServiceTime: svcRng.ExpFloat64() / mu})
			e.After(arrRng.ExpFloat64()/lambda, schedule)
		}
		eng.After(0, schedule)
		eng.Run()
		var total, n float64
		for _, s := range stations {
			s.Finish()
			w := &s.Metrics().Wait
			total += w.Mean() * float64(w.N())
			n += float64(w.N())
		}
		return total / n
	}

	lc := run(func(sv []queue.Server, rng *rand.Rand) Dispatcher {
		return NewLeastConnections(sv, rng)
	})
	po2 := run(func(sv []queue.Server, rng *rand.Rand) Dispatcher {
		return NewPowerOfTwo(sv, rng)
	})
	random := run(func(sv []queue.Server, rng *rand.Rand) Dispatcher {
		return NewRandom(sv, rng)
	})

	if !(lc < po2) {
		t.Errorf("least-conn %v should beat po2 %v", lc, po2)
	}
	if !(po2 < random) {
		t.Errorf("po2 %v should beat random %v", po2, random)
	}
}

func TestGeographicHomeRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	stations, servers := makeStations(eng, 3)
	g := NewGeographic(servers, 0, 0.005, streams(1)()) // jockeying disabled
	eng.At(0, func(*sim.Engine) {
		g.Dispatch(&queue.Request{Site: 2, ServiceTime: 1})
		g.Dispatch(&queue.Request{Site: 0, ServiceTime: 1})
	})
	eng.RunUntil(0.5)
	if stations[2].TotalArrivals() != 1 || stations[0].TotalArrivals() != 1 {
		t.Error("disabled jockeying should route home")
	}
	if g.Redirected != 0 {
		t.Error("no redirects expected")
	}
}

func TestGeographicJockeys(t *testing.T) {
	eng := sim.NewEngine(1)
	stations, servers := makeStations(eng, 3)
	g := NewGeographic(servers, 2, 0.005, streams(1)())
	var detoured *queue.Request
	eng.At(0, func(*sim.Engine) {
		// Load site 0 to the threshold.
		stations[0].Arrive(&queue.Request{ServiceTime: 100})
		stations[0].Arrive(&queue.Request{ServiceTime: 100})
		r := &queue.Request{Site: 0, ServiceTime: 100, NetworkRTT: 0.001}
		detoured = r
		g.Dispatch(r)
	})
	eng.RunUntil(1)
	if g.Redirected != 1 {
		t.Fatalf("Redirected = %d, want 1", g.Redirected)
	}
	if stations[0].TotalArrivals() != 2 {
		t.Error("overloaded home should not receive the jockeyed request")
	}
	if math.Abs(detoured.NetworkRTT-0.006) > 1e-12 {
		t.Errorf("detour RTT not added: %v", detoured.NetworkRTT)
	}
}

func TestGeographicNoBetterSiteStaysHome(t *testing.T) {
	eng := sim.NewEngine(1)
	stations, servers := makeStations(eng, 2)
	g := NewGeographic(servers, 1, 0.005, streams(1)())
	eng.At(0, func(*sim.Engine) {
		// Both sites equally loaded at the threshold.
		stations[0].Arrive(&queue.Request{ServiceTime: 100})
		stations[1].Arrive(&queue.Request{ServiceTime: 100})
		g.Dispatch(&queue.Request{Site: 0, ServiceTime: 100})
	})
	eng.RunUntil(1)
	if g.Redirected != 0 {
		t.Error("equal load should not redirect")
	}
	if stations[0].TotalArrivals() != 2 {
		t.Error("request should stay home when no site is strictly better")
	}
}

func TestGeographicPanicsOnBadSite(t *testing.T) {
	eng := sim.NewEngine(1)
	_, servers := makeStations(eng, 2)
	g := NewGeographic(servers, 0, 0, streams(1)())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range home site should panic")
		}
	}()
	g.Dispatch(&queue.Request{Site: 7, ServiceTime: 1})
}

func TestConstructorsPanicOnEmpty(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRoundRobin(nil) },
		func() { NewLeastConnections(nil, nil) },
		func() { NewPowerOfTwo(nil, streams(1)()) },
		func() { NewRandom(nil, streams(1)()) },
		func() { NewGeographic(nil, 0, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty dispatcher construction should panic")
				}
			}()
			fn()
		}()
	}
}
