package queue

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/theory"
)

// driveBounded feeds Poisson/exponential traffic into a bounded station
// and returns it with the drop count.
func driveBounded(servers, queueCap int, lambda, mu, duration float64, seed int64) (*Station, int64) {
	eng := sim.NewEngine(seed)
	st := NewStation(eng, "bounded", servers, FCFS)
	st.QueueCap = queueCap
	st.SetWarmup(duration / 10)
	next := streams(seed)
	arrRng := next()
	svcRng := next()
	var schedule func(e *sim.Engine)
	schedule = func(e *sim.Engine) {
		if e.Now() > duration {
			return
		}
		st.Arrive(&Request{ServiceTime: svcRng.ExpFloat64() / mu})
		e.After(arrRng.ExpFloat64()/lambda, schedule)
	}
	eng.After(0, schedule)
	eng.Run()
	st.Finish()
	return st, st.Metrics().Dropped
}

// TestBoundedQueueLossMatchesMMcK: the simulated drop fraction must match
// the analytic M/M/c/K blocking probability. K (total capacity) = servers
// + queue slots.
func TestBoundedQueueLossMatchesMMcK(t *testing.T) {
	cases := []struct {
		servers, queueCap int
		rho               float64
	}{
		{1, 4, 0.9},
		{1, 2, 1.3},
		{3, 5, 1.1},
	}
	for _, c := range cases {
		mu := 13.0
		lambda := c.rho * float64(c.servers) * mu
		st, dropped := driveBounded(c.servers, c.queueCap, lambda, mu, 6000, 91)
		m := st.Metrics()
		total := float64(m.Arrivals.Events())
		if total == 0 {
			t.Fatal("no arrivals")
		}
		lossSim := float64(dropped) / total
		lossTheory := theory.MMcKLossProbability(c.servers, c.servers+c.queueCap, c.rho)
		if math.Abs(lossSim-lossTheory) > 0.12*lossTheory+0.01 {
			t.Errorf("c=%d K=%d rho=%v: simulated loss %.4f vs theory %.4f",
				c.servers, c.servers+c.queueCap, c.rho, lossSim, lossTheory)
		}
	}
}

func TestBoundedQueueNeverExceedsCap(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "cap", 1, FCFS)
	st.QueueCap = 3
	dropped := 0
	eng.At(0, func(*sim.Engine) {
		for i := 0; i < 10; i++ {
			st.Arrive(&Request{ServiceTime: 100, Done: DoneFunc(func(_ *sim.Engine, r *Request) {
				if r.Dropped {
					dropped++
				}
			})})
			if st.QueueLength() > 3 {
				t.Fatalf("queue length %d exceeded cap 3", st.QueueLength())
			}
		}
	})
	eng.RunUntil(1)
	// 10 arrivals: 1 in service, 3 queued, 6 dropped.
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	if st.Metrics().Dropped != 6 {
		t.Errorf("metric dropped = %d, want 6", st.Metrics().Dropped)
	}
}

func TestDroppedRequestMarked(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "mark", 1, FCFS)
	st.QueueCap = 1
	var reject *Request
	eng.At(0, func(*sim.Engine) {
		st.Arrive(&Request{ServiceTime: 10})
		st.Arrive(&Request{ServiceTime: 10})
		r := &Request{ServiceTime: 10, Done: DoneFunc(func(_ *sim.Engine, rr *Request) {
			if rr.Dropped {
				reject = rr
			}
		})}
		st.Arrive(r)
	})
	eng.RunUntil(1)
	if reject == nil {
		t.Fatal("third request should be dropped")
	}
	if reject.Departure != 0 {
		t.Errorf("drop departure = %v, want 0 (the arrival instant)", reject.Departure)
	}
}

func TestUnboundedQueueNeverDrops(t *testing.T) {
	st, dropped := driveBounded(1, 0, 20, 13, 500, 92)
	if dropped != 0 {
		t.Errorf("unbounded queue dropped %d", dropped)
	}
	if st.Metrics().Dropped != 0 {
		t.Error("unbounded metric dropped nonzero")
	}
}

func TestSetServersGrowStartsWaiting(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "grow", 1, FCFS)
	eng.At(0, func(*sim.Engine) {
		for i := 0; i < 4; i++ {
			st.Arrive(&Request{ServiceTime: 10})
		}
		if st.Busy() != 1 || st.QueueLength() != 3 {
			t.Fatalf("precondition wrong: busy=%d queued=%d", st.Busy(), st.QueueLength())
		}
		st.SetServers(3)
		if st.Busy() != 3 {
			t.Errorf("after growth busy = %d, want 3", st.Busy())
		}
		if st.QueueLength() != 1 {
			t.Errorf("after growth queued = %d, want 1", st.QueueLength())
		}
	})
	eng.RunUntil(1)
}

func TestSetServersShrinkIsGraceful(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "shrink", 3, FCFS)
	var completions int
	eng.At(0, func(*sim.Engine) {
		for i := 0; i < 3; i++ {
			st.Arrive(&Request{ServiceTime: 1, Done: DoneFunc(func(_ *sim.Engine, _ *Request) { completions++ })})
		}
		st.SetServers(1)
		// In-flight services keep running.
		if st.Busy() != 3 {
			t.Errorf("busy = %d, in-flight work must finish", st.Busy())
		}
	})
	// A fourth request at t=0.5 queues because target capacity is 1.
	eng.At(0.5, func(*sim.Engine) {
		st.Arrive(&Request{ServiceTime: 1, Done: DoneFunc(func(_ *sim.Engine, _ *Request) { completions++ })})
		if st.Busy() != 3 || st.QueueLength() != 1 {
			t.Errorf("shrunk station admitted beyond capacity: busy=%d queued=%d",
				st.Busy(), st.QueueLength())
		}
	})
	eng.Run()
	if completions != 4 {
		t.Errorf("completions = %d, want 4", completions)
	}
}

func TestSetServersPanicsOnZero(t *testing.T) {
	eng := sim.NewEngine(1)
	st := NewStation(eng, "zero", 1, FCFS)
	defer func() {
		if recover() == nil {
			t.Error("SetServers(0) should panic")
		}
	}()
	st.SetServers(0)
}
