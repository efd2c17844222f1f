package autoscale

import (
	"math"
	"strings"
	"testing"

	"repro/internal/forecast"
	"repro/internal/queue"
	"repro/internal/sim"
)

func TestNewRejectsUnknownPolicy(t *testing.T) {
	eng := sim.NewEngine(21)
	st := queue.NewStation(eng, "x", 1, queue.FCFS)
	if _, err := New(Spec{Policy: "nope", Interval: 1, Min: 1, Max: 2},
		eng, []*queue.Station{st}); err == nil {
		t.Fatal("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "reactive") {
		t.Errorf("error %q should list the registry", err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Policy: "nope", Interval: 1, Min: 1, Max: 2},
		{Policy: PolicyReactive, Interval: 0, Min: 1, Max: 2, UpThreshold: 1, DownThreshold: 0.1},
		{Policy: PolicyReactive, Interval: 1, Min: 2, Max: 1, UpThreshold: 1, DownThreshold: 0.1},
		{Policy: PolicyReactive, Interval: 1, Min: 1, Max: 2, UpThreshold: 0.1, DownThreshold: 0.5},
		{Policy: PolicyPredictive, Interval: 1, Min: 1, Max: 2, Mu: 0, TargetUtil: 0.5},
		{Policy: PolicyPredictive, Interval: 1, Min: 1, Max: 2, Mu: 13, TargetUtil: 1.5},
		{Policy: PolicyPredictive, Interval: 1, Min: 1, Max: 2, Mu: 13, TargetUtil: 0.5, Forecaster: "oracle"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) should fail validation", i, s)
		}
	}
	good := []Spec{
		DefaultReactiveSpec(1, 4),
		{Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 4, Mu: 13, TargetUtil: 0.6},
		{Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 4, Mu: 13, TargetUtil: 0.6,
			Forecaster: "holt", Alpha: 0.6, Beta: 0.4},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d rejected: %v", i, err)
		}
	}
}

// TestSpecValidateRejectsUnreadFields: a field the chosen policy never
// reads is an error naming it, as is a negative Step or Cooldown.
func TestSpecValidateRejectsUnreadFields(t *testing.T) {
	reactive := DefaultReactiveSpec(1, 4)
	predictive := DefaultPredictiveSpec(1, 4, 13, "holt")
	for _, tc := range []struct {
		name string
		base Spec
		edit func(*Spec)
		want string
	}{
		{"reactive-mu", reactive, func(s *Spec) { s.Mu = 13 }, "Mu"},
		{"reactive-target-util", reactive, func(s *Spec) { s.TargetUtil = 0.6 }, "TargetUtil"},
		{"reactive-forecaster", reactive, func(s *Spec) { s.Forecaster = "holt" }, "Forecaster"},
		{"reactive-horizon", reactive, func(s *Spec) { s.Horizon = 4 }, "Horizon"},
		{"reactive-alpha", reactive, func(s *Spec) { s.Alpha = 0.5 }, "Alpha"},
		{"reactive-beta", reactive, func(s *Spec) { s.Beta = 0.3 }, "Beta"},
		{"reactive-negative-step", reactive, func(s *Spec) { s.Step = -1 }, "Step"},
		{"reactive-negative-cooldown", reactive, func(s *Spec) { s.Cooldown = -5 }, "Cooldown"},
		{"reactive-nan-cooldown", reactive, func(s *Spec) { s.Cooldown = math.NaN() }, "Cooldown"},
		{"predictive-up", predictive, func(s *Spec) { s.UpThreshold = 1.5 }, "UpThreshold"},
		{"predictive-down", predictive, func(s *Spec) { s.DownThreshold = 0.3 }, "DownThreshold"},
		{"predictive-cooldown", predictive, func(s *Spec) { s.Cooldown = 15 }, "Cooldown"},
		{"predictive-step", predictive, func(s *Spec) { s.Step = 1 }, "Step"},
	} {
		s := tc.base
		tc.edit(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
		if _, nerr := New(s, sim.NewEngine(1), nil); nerr == nil {
			t.Errorf("%s: New accepted the spec", tc.name)
		}
	}
	// Zero Step and Cooldown are the reactive defaults, not errors.
	reactive.Step, reactive.Cooldown = 0, 0
	if err := reactive.Validate(); err != nil {
		t.Errorf("zero step/cooldown rejected: %v", err)
	}
}

// TestGoldenEventLog pins the controller's decisions: on one fixed-seed
// workload, a reactive and a predictive/holt spec must reproduce the
// event logs (time, station, from, to, signal) pinned below, action for
// action.
func TestGoldenEventLog(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want []Event
	}{
		{Spec{Policy: PolicyReactive, Interval: 2, Min: 1, Max: 6,
			UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 4}, goldenReactive},
		{Spec{Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 8, Mu: 13, TargetUtil: 0.6,
			Forecaster: "holt", Alpha: 0.6, Beta: 0.4}, goldenPredictive},
	} {
		eng := sim.NewEngine(31)
		st := queue.NewStation(eng, "s", 1, queue.FCFS)
		c := start(t, eng, []*queue.Station{st}, tc.spec)
		loadStation(eng, st, 30, 13, 300)
		eng.RunUntil(400)
		got := c.EventLog()
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d events, want %d", tc.spec.Label(), len(got), len(tc.want))
		}
		for i := range min(len(got), len(tc.want)) {
			if got[i] != tc.want[i] {
				t.Errorf("%s: event %d = %+v, want %+v", tc.spec.Label(), i, got[i], tc.want[i])
				break
			}
		}
	}
}

var goldenReactive = []Event{
	{2, "s", 1, 2, 25},
	{6, "s", 2, 3, 16.5},
	{18, "s", 3, 4, 2},
	{22, "s", 4, 5, 2.5},
	{26, "s", 5, 4, 0},
	{40, "s", 4, 5, 2},
	{46, "s", 5, 4, 0.2},
	{70, "s", 4, 3, 0},
	{78, "s", 3, 2, 0},
	{82, "s", 2, 3, 7},
	{92, "s", 3, 4, 2},
	{102, "s", 4, 5, 1.75},
	{106, "s", 5, 4, 0.2},
	{118, "s", 4, 5, 1.5},
	{124, "s", 5, 4, 0},
	{138, "s", 4, 3, 0},
	{142, "s", 3, 2, 0},
	{146, "s", 2, 3, 6},
	{152, "s", 3, 4, 2},
	{162, "s", 4, 3, 0},
	{168, "s", 3, 4, 1.6666666666666667},
	{184, "s", 4, 3, 0},
	{192, "s", 3, 4, 1.6666666666666667},
	{204, "s", 4, 5, 2.5},
	{212, "s", 5, 4, 0},
	{226, "s", 4, 3, 0},
	{230, "s", 3, 4, 2},
	{242, "s", 4, 3, 0},
	{248, "s", 3, 4, 3.3333333333333335},
	{262, "s", 4, 3, 0},
	{266, "s", 3, 4, 2},
	{270, "s", 4, 5, 2.5},
	{278, "s", 5, 4, 0.2},
	{288, "s", 4, 3, 0},
	{294, "s", 3, 4, 5.666666666666667},
	{298, "s", 4, 3, 0},
	{302, "s", 3, 2, 0},
	{306, "s", 2, 1, 0},
}

var goldenPredictive = []Event{
	{5, "s", 1, 4, 26.8},
	{20, "s", 4, 5, 35.9408},
	{35, "s", 5, 4, 28.757809356800006},
	{75, "s", 4, 5, 32.71520881607547},
	{95, "s", 5, 4, 30.569849026946706},
	{100, "s", 4, 5, 31.485398288622402},
	{115, "s", 5, 4, 28.798610939323638},
	{120, "s", 4, 5, 36.409195620328184},
	{135, "s", 5, 4, 30.081481269633464},
	{205, "s", 4, 5, 34.94327856178017},
	{210, "s", 5, 4, 31.043364563616866},
	{235, "s", 4, 5, 33.582066819179715},
	{240, "s", 5, 4, 29.774265617338617},
	{265, "s", 4, 5, 33.750940454547745},
	{290, "s", 5, 4, 30.132249213798953},
	{305, "s", 4, 1, 4.056614518564386},
}

// TestPredictiveSpecUsesNamedForecaster: every registry forecaster
// builds and drives the predictive controller.
func TestPredictiveSpecUsesNamedForecaster(t *testing.T) {
	for _, name := range forecast.Names() {
		eng := sim.NewEngine(41)
		st := queue.NewStation(eng, "s", 1, queue.FCFS)
		s := start(t, eng, []*queue.Station{st}, Spec{
			Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 8,
			Mu: 13, TargetUtil: 0.6, Forecaster: name,
		})
		loadStation(eng, st, 30, 13, 200)
		eng.RunUntil(250)
		tel := s.Telemetry(250)
		if tel.Policy != PolicyPredictive {
			t.Errorf("%s: policy = %q", name, tel.Policy)
		}
		if tel.ScaleUps == 0 {
			t.Errorf("%s: predictive controller never scaled up under overload", name)
		}
	}
}

func TestSpecLabel(t *testing.T) {
	if got := DefaultReactiveSpec(1, 2).Label(); got != "reactive" {
		t.Errorf("reactive label = %q", got)
	}
	s := Spec{Policy: PolicyPredictive, Interval: 5, Min: 1, Max: 2, Mu: 13,
		TargetUtil: 0.6, Forecaster: "holt"}
	if got := s.Label(); !strings.HasPrefix(got, "predictive/holt") {
		t.Errorf("predictive label = %q", got)
	}
}

// TestTelemetryServerSeconds: telemetry integration must agree with a
// hand-computed piecewise-constant integral.
func TestTelemetryServerSeconds(t *testing.T) {
	eng := sim.NewEngine(51)
	st := queue.NewStation(eng, "cap", 1, queue.FCFS)
	c, err := New(Spec{Policy: PolicyReactive,
		Interval: 1, Min: 1, Max: 8, UpThreshold: 0.5, DownThreshold: 0.1, Cooldown: 1,
	}, eng, []*queue.Station{st})
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize an exact event log instead of running a workload.
	c.events = []Event{
		{Time: 10, Station: "cap", From: 1, To: 3},
		{Time: 30, Station: "cap", From: 3, To: 2},
	}
	// 1×10 + 3×20 + 2×70 = 210 over [0, 100].
	got := c.Telemetry(100).ServerSeconds
	if math.Abs(got-210) > 1e-9 {
		t.Errorf("server-seconds = %v, want 210", got)
	}
}

// TestTelemetryServerSecondsWindows: degenerate windows (zero
// duration, ending before the first tick) must integrate cleanly,
// never negatively.
func TestTelemetryServerSecondsWindows(t *testing.T) {
	eng := sim.NewEngine(52)
	st := queue.NewStation(eng, "w", 2, queue.FCFS)
	c, err := New(Spec{Policy: PolicyPredictive, Interval: 10, Min: 1, Max: 8, Mu: 13, TargetUtil: 0.6},
		eng, []*queue.Station{st})
	if err != nil {
		t.Fatal(err)
	}
	c.events = []Event{
		{Time: 20, Station: "w", From: 2, To: 5},
		{Time: 60, Station: "w", From: 5, To: 3},
	}
	cases := []struct {
		name string
		end  float64
		want float64
	}{
		{"zero duration", 0, 0},
		{"inverted window", -10, 0},
		{"pre-first-tick", 10, 2 * 10},
		{"ends exactly at first event", 20, 2 * 20},
		{"spans one event", 40, 2*20 + 5*20},
		{"full run", 100, 2*20 + 5*40 + 3*40},
	}
	for _, tc := range cases {
		got := c.Telemetry(tc.end).ServerSeconds
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: Telemetry(%v).ServerSeconds = %v, want %v", tc.name, tc.end, got, tc.want)
		}
		if got < 0 {
			t.Errorf("%s: negative server-seconds %v", tc.name, got)
		}
	}
}

// TestScalerStartIdempotent: double Start must not double the tick
// rate, and Stop before Start must not panic.
func TestScalerStartIdempotent(t *testing.T) {
	eng := sim.NewEngine(53)
	st := queue.NewStation(eng, "idem", 1, queue.FCFS)
	c := start(t, eng, []*queue.Station{st}, Spec{Policy: PolicyReactive,
		Interval: 1, Min: 1, Max: 50, UpThreshold: 1.1, DownThreshold: 0.01, Cooldown: 10,
	})
	c.Start()
	loadStation(eng, st, 120, 13, 100)
	eng.RunUntil(150)
	events := c.EventLog()
	for i := 1; i < len(events); i++ {
		if events[i].Time-events[i-1].Time < 10-1e-9 {
			t.Fatalf("double Start broke the cooldown: events at %v and %v",
				events[i-1].Time, events[i].Time)
		}
	}
	unstarted, err := New(DefaultReactiveSpec(1, 2), eng, []*queue.Station{st})
	if err != nil {
		t.Fatal(err)
	}
	unstarted.Stop() // must not panic
}
