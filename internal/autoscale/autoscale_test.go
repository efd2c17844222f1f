package autoscale

import (
	"testing"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// start constructs and immediately starts a controller (most tests
// want the ticker armed from t=0).
func start(t *testing.T, e *sim.Engine, sts []*queue.Station, spec Spec) *Controller {
	t.Helper()
	c, err := New(spec, e, sts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return c
}

// sojourns records the sojourn of every request that completes at or
// after from.
type sojourns struct {
	from float64
	stats.Stream
}

func (s *sojourns) Consume(e *sim.Engine, r *queue.Request) {
	if e.Now() >= s.from {
		s.Add(r.Sojourn())
	}
}

// loadStation drives Poisson arrivals at the given rate into a station
// for the duration and returns the sojourns of the requests it completes.
func loadStation(eng *sim.Engine, st *queue.Station, rate, mu, duration float64) *sojourns {
	done := &sojourns{}
	arrRng := eng.NewStream()
	svcRng := eng.NewStream()
	var schedule func(e *sim.Engine)
	schedule = func(e *sim.Engine) {
		if e.Now() > duration {
			return
		}
		st.Arrive(&queue.Request{ServiceTime: svcRng.ExpFloat64() / mu, Done: done})
		e.After(arrRng.ExpFloat64()/rate, schedule)
	}
	eng.After(0, schedule)
	return done
}

func TestScalesUpUnderOverload(t *testing.T) {
	eng := sim.NewEngine(1)
	st := queue.NewStation(eng, "hot", 1, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyReactive, Interval: 2, Min: 1, Max: 8, UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 4,
	})
	loadStation(eng, st, 30, 13, 300) // 230% of one server
	eng.RunUntil(400)
	tel := ctrl.Telemetry(400)
	if tel.ScaleUps == 0 {
		t.Fatal("overloaded station never scaled up")
	}
	// After the load stops (t=300) the controller shrinks back toward
	// Min, so assert on the peak it reached during the overload.
	if tel.PeakServers < 3 {
		t.Errorf("peak servers = %d, want >= 3 for a 30 req/s load", tel.PeakServers)
	}
	if tel.ScaleDowns == 0 {
		t.Error("expected scale-downs after the load ended")
	}
}

func TestScalesDownWhenIdle(t *testing.T) {
	eng := sim.NewEngine(2)
	st := queue.NewStation(eng, "cool", 6, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyReactive, Interval: 2, Min: 1, Max: 8, UpThreshold: 1.5, DownThreshold: 0.4, Cooldown: 4,
	})
	loadStation(eng, st, 2, 13, 300) // ~3% utilization of 6 servers
	eng.RunUntil(400)
	if ctrl.Telemetry(400).ScaleDowns == 0 {
		t.Fatal("idle station never scaled down")
	}
	if st.Servers != 1 {
		t.Errorf("final servers = %d, want 1", st.Servers)
	}
}

func TestRespectsBounds(t *testing.T) {
	eng := sim.NewEngine(3)
	st := queue.NewStation(eng, "bounded", 2, queue.FCFS)
	start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyReactive, Interval: 1, Min: 2, Max: 3, UpThreshold: 1.2, DownThreshold: 0.1, Cooldown: 1,
	})
	loadStation(eng, st, 100, 13, 200) // hopeless overload
	eng.RunUntil(250)
	if st.Servers != 3 {
		t.Errorf("servers = %d, must stay at Max 3", st.Servers)
	}
}

func TestCooldownLimitsActionRate(t *testing.T) {
	eng := sim.NewEngine(4)
	st := queue.NewStation(eng, "cool-down", 1, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyReactive, Interval: 1, Min: 1, Max: 100, UpThreshold: 1.1, DownThreshold: 0.01, Cooldown: 10,
	})
	loadStation(eng, st, 120, 13, 100)
	eng.RunUntil(150)
	// 150 s horizon / 10 s cooldown ⇒ at most ~15 actions.
	events := ctrl.EventLog()
	if len(events) > 16 {
		t.Errorf("%d actions despite 10 s cooldown over 150 s", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time-events[i-1].Time < 10-1e-9 {
			t.Fatalf("actions %d and %d closer than the cooldown", i-1, i)
		}
	}
}

func TestEventTelemetry(t *testing.T) {
	eng := sim.NewEngine(5)
	st := queue.NewStation(eng, "telemetry", 1, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, DefaultReactiveSpec(1, 4))
	loadStation(eng, st, 40, 13, 200)
	eng.RunUntil(250)
	if len(ctrl.EventLog()) == 0 {
		t.Fatal("no events recorded")
	}
	for _, e := range ctrl.EventLog() {
		if e.Station != "telemetry" || e.From == e.To || e.Signal < 0 {
			t.Errorf("malformed event %+v", e)
		}
	}
}

func TestStopHaltsController(t *testing.T) {
	eng := sim.NewEngine(6)
	st := queue.NewStation(eng, "halt", 1, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyReactive, Interval: 1, Min: 1, Max: 50, UpThreshold: 1.1, DownThreshold: 0.01, Cooldown: 1,
	})
	loadStation(eng, st, 100, 13, 100)
	eng.At(10, func(*sim.Engine) { ctrl.Stop() })
	eng.RunUntil(150)
	for _, e := range ctrl.EventLog() {
		if e.Time > 10 {
			t.Fatalf("controller acted at %v after Stop at 10", e.Time)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(7)
	st := queue.NewStation(eng, "v", 1, queue.FCFS)
	bad := []Spec{
		{Policy: PolicyReactive, Interval: 0, Min: 1, Max: 2, UpThreshold: 1, DownThreshold: 0.1},
		{Policy: PolicyReactive, Interval: 1, Min: 0, Max: 2, UpThreshold: 1, DownThreshold: 0.1},
		{Policy: PolicyReactive, Interval: 1, Min: 3, Max: 2, UpThreshold: 1, DownThreshold: 0.1},
		{Policy: PolicyReactive, Interval: 1, Min: 1, Max: 2, UpThreshold: 0.1, DownThreshold: 0.5},
	}
	for i, spec := range bad {
		if _, err := New(spec, eng, []*queue.Station{st}); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(DefaultReactiveSpec(1, 2), eng, nil); err == nil {
		t.Error("empty station list should be rejected")
	}
}

// TestAutoscaleReducesLatencyUnderBurst: the headline property — a
// station facing a sustained burst delivers far lower sojourn times with
// the controller than without it.
func TestAutoscaleReducesLatencyUnderBurst(t *testing.T) {
	run := func(enable bool) float64 {
		eng := sim.NewEngine(8)
		st := queue.NewStation(eng, "burst", 1, queue.FCFS)
		if enable {
			start(t, eng, []*queue.Station{st}, Spec{
				Policy: PolicyReactive, Interval: 2, Min: 1, Max: 6, UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 4,
			})
		}
		done := loadStation(eng, st, 25, 13, 400) // ~190% of one server
		done.from = 30
		eng.RunUntil(600)
		return done.Mean()
	}
	static := run(false)
	scaled := run(true)
	if scaled >= static/3 {
		t.Errorf("autoscaled sojourn %v should be far below static %v", scaled, static)
	}
}
