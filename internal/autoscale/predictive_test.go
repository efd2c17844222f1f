package autoscale

import (
	"testing"

	"repro/internal/queue"
	"repro/internal/sim"
)

func TestPredictiveProvisionsForRate(t *testing.T) {
	eng := sim.NewEngine(11)
	st := queue.NewStation(eng, "pred", 1, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 8, Mu: 13, TargetUtil: 0.6,
	})
	loadStation(eng, st, 30, 13, 300)
	// Stop observing while the load is still active (after it ends the
	// controller rightly shrinks back to Min).
	eng.RunUntil(295)
	// 30 req/s at target ρ=0.6 needs ceil(30/7.8) = 4 servers.
	if st.Servers != 4 {
		t.Errorf("predictive servers = %d, want 4 for 30 req/s at 60%% target", st.Servers)
	}
	if len(ctrl.EventLog()) == 0 {
		t.Fatal("no scaling events")
	}
}

func TestPredictiveScalesBackDown(t *testing.T) {
	eng := sim.NewEngine(12)
	st := queue.NewStation(eng, "down", 4, queue.FCFS)
	start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 8, Mu: 13, TargetUtil: 0.6,
		Forecaster: "ewma", Alpha: 0.8,
	})
	loadStation(eng, st, 2, 13, 200) // trivial load
	eng.RunUntil(260)
	if st.Servers != 1 {
		t.Errorf("idle predictive servers = %d, want 1", st.Servers)
	}
}

func TestPredictiveRespectsBounds(t *testing.T) {
	eng := sim.NewEngine(13)
	st := queue.NewStation(eng, "bound", 1, queue.FCFS)
	start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyPredictive, Interval: 2, Min: 1, Max: 3, Mu: 13, TargetUtil: 0.5,
	})
	loadStation(eng, st, 200, 13, 100)
	eng.RunUntil(95)
	if st.Servers != 3 {
		t.Errorf("servers = %d, must cap at Max 3", st.Servers)
	}
}

// TestPredictiveTracksRamp: with a Holt forecaster, capacity follows a
// ramping workload.
func TestPredictiveTracksRamp(t *testing.T) {
	eng := sim.NewEngine(14)
	st := queue.NewStation(eng, "ramp", 1, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 10, Mu: 13, TargetUtil: 0.6,
		Forecaster: "holt", Alpha: 0.6, Beta: 0.4,
	})
	// Ramp the arrival rate from 5 to 45 req/s over 300 s.
	arrRng := eng.NewStream()
	svcRng := eng.NewStream()
	var schedule func(e *sim.Engine)
	schedule = func(e *sim.Engine) {
		if e.Now() > 300 {
			return
		}
		rate := 5 + 40*e.Now()/300
		st.Arrive(&queue.Request{ServiceTime: svcRng.ExpFloat64() / 13})
		e.After(arrRng.ExpFloat64()/rate, schedule)
	}
	eng.After(0, schedule)
	eng.RunUntil(330)
	// Peak rate ~45 req/s at ρ=0.6 needs ceil(45/7.8) = 6 servers; after
	// the ramp ends the controller shrinks back, so assert on the peak.
	if peak := ctrl.Telemetry(330).PeakServers; peak < 5 {
		t.Errorf("ramp-tracking peak = %d servers, want >= 5", peak)
	}
}

func TestPredictiveServerSeconds(t *testing.T) {
	eng := sim.NewEngine(15)
	st := queue.NewStation(eng, "cost", 1, queue.FCFS)
	ctrl := start(t, eng, []*queue.Station{st}, Spec{
		Policy: PolicyPredictive, Interval: 10, Min: 1, Max: 8, Mu: 13, TargetUtil: 0.6,
	})
	loadStation(eng, st, 30, 13, 200)
	eng.RunUntil(200)
	got := ctrl.Telemetry(200).ServerSeconds
	// Must be at least the static minimum (1 server × 200 s) and at most
	// the maximum (8 × 200).
	if got < 200 || got > 8*200 {
		t.Errorf("server-seconds = %v outside [200, 1600]", got)
	}
	// And more than static-1 since it scaled up.
	if got <= 220 {
		t.Errorf("server-seconds = %v, expected meaningful scale-up cost", got)
	}
}

func TestPredictiveConfigValidation(t *testing.T) {
	eng := sim.NewEngine(16)
	st := queue.NewStation(eng, "v", 1, queue.FCFS)
	bad := []Spec{
		{Policy: PolicyPredictive, Interval: 0, Min: 1, Max: 2, Mu: 13, TargetUtil: 0.5},
		{Policy: PolicyPredictive, Interval: 1, Min: 0, Max: 2, Mu: 13, TargetUtil: 0.5},
		{Policy: PolicyPredictive, Interval: 1, Min: 3, Max: 2, Mu: 13, TargetUtil: 0.5},
		{Policy: PolicyPredictive, Interval: 1, Min: 1, Max: 2, Mu: 0, TargetUtil: 0.5},
		{Policy: PolicyPredictive, Interval: 1, Min: 1, Max: 2, Mu: 13, TargetUtil: 1.2},
	}
	for i, spec := range bad {
		if _, err := New(spec, eng, []*queue.Station{st}); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// TestPredictiveVsReactiveOnBurst: on a step change in load, the
// predictive controller (provisioning from measured rate) should reach
// adequate capacity at least as fast as the threshold-reactive one, and
// both must beat the static baseline on sojourn time.
func TestPredictiveVsReactiveOnBurst(t *testing.T) {
	run := func(mode string) float64 {
		eng := sim.NewEngine(17)
		st := queue.NewStation(eng, mode, 1, queue.FCFS)
		switch mode {
		case "reactive":
			start(t, eng, []*queue.Station{st}, Spec{
				Policy: PolicyReactive, Interval: 5, Min: 1, Max: 6, UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 10,
			})
		case "predictive":
			start(t, eng, []*queue.Station{st}, Spec{
				Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 6, Mu: 13, TargetUtil: 0.65,
			})
		}
		done := loadStation(eng, st, 28, 13, 400)
		done.from = 20
		eng.RunUntil(500)
		return done.Mean()
	}
	static := run("static")
	reactive := run("reactive")
	predictive := run("predictive")
	if reactive >= static || predictive >= static {
		t.Errorf("controllers should beat static: static=%v reactive=%v predictive=%v",
			static, reactive, predictive)
	}
	if predictive > reactive*2 {
		t.Errorf("predictive %v should be competitive with reactive %v", predictive, reactive)
	}
}
