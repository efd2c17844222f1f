// Package autoscale implements the per-site capacity controller the
// paper points to in its design implications and future work: "if the
// spatial distribution of the workload changes over time, the
// allocated processing capacity at each site should also be adjusted
// dynamically to match these workload changes" (§3.2) and "we plan to
// design dynamic edge resource allocation techniques that are robust to
// performance inversion" (§7).
//
// A scaler is described by a Spec and built with New, mirroring the
// lb.New / admit.New / forecast.New registries. One Controller runs
// every policy: on a fixed interval it visits each station and sets a
// new server count between the spec's Min and Max bounds. Two policies
// ship:
//
//   - reactive: threshold scaling, the shape of production horizontal
//     autoscalers. The signal is in-flight requests per server; at or
//     above UpThreshold the station grows by Step servers, at or below
//     DownThreshold it shrinks by Step, and a Cooldown between actions
//     at one station prevents thrashing.
//   - predictive: forecast-driven provisioning, the "capacity ∝
//     predicted load" rule of the paper's §3.2 takeaway. Each interval
//     the controller measures the station's arrival rate, feeds it to a
//     per-station forecaster (forecast.Names), and provisions enough
//     servers of rate Mu to keep the predicted utilization at or below
//     TargetUtil.
//
// Both are deliberately simple, so their effect on performance
// inversion can be studied in isolation.
package autoscale

import (
	"fmt"
	"math"

	"repro/internal/forecast"
	"repro/internal/queue"
	"repro/internal/sim"
)

// Event records one scaling action for analysis.
type Event struct {
	Time    float64
	Station string
	From    int
	To      int
	// Signal is what triggered the action: load per server (reactive)
	// or the forecast arrival rate, req/s (predictive).
	Signal float64
}

// Controller drives one tier's stations under one Spec.
type Controller struct {
	spec     Spec
	engine   *sim.Engine
	stations []*queue.Station
	start    []int // server counts at construction
	ticker   *sim.Ticker
	events   []Event
	lastAct  []float64 // each station's last action time, for the reactive cooldown

	// Predictive state: each station's forecaster and arrival count at
	// the previous tick.
	forecasters []forecast.Forecaster
	lastCount   []uint64
}

// New validates the spec and attaches its controller to the stations.
// The controller is idle until Start arms its ticker. Unknown policies
// and invalid parameters return an error listing the registry.
func New(spec Spec, e *sim.Engine, stations []*queue.Station) (*Controller, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(stations) == 0 {
		return nil, fmt.Errorf("autoscale: %s controller has no stations", spec.Policy)
	}
	c := &Controller{
		spec:     spec,
		engine:   e,
		stations: stations,
		start:    make([]int, len(stations)),
		lastAct:  make([]float64, len(stations)),
	}
	for i, st := range stations {
		c.start[i] = st.Servers
		c.lastAct[i] = -spec.Cooldown // allow an immediate first action
	}
	switch spec.Policy {
	case PolicyReactive:
		if c.spec.Step == 0 {
			c.spec.Step = 1
		}
	case PolicyPredictive:
		// Validate resolved the forecaster, so this cannot fail.
		mk, _ := spec.forecaster()
		c.forecasters = make([]forecast.Forecaster, len(stations))
		c.lastCount = make([]uint64, len(stations))
		for i, st := range stations {
			c.forecasters[i] = mk()
			c.lastCount[i] = st.TotalArrivals()
		}
	}
	return c, nil
}

// Start arms the controller's ticker: the first decision fires one
// interval after the engine's current time. Starting twice is a no-op.
func (c *Controller) Start() {
	if c.ticker != nil {
		return
	}
	c.ticker = c.engine.Every(c.spec.Interval, func(en *sim.Engine) { c.tick(en.Now()) })
}

// Stop halts the controller; safe to call more than once, or before
// Start.
func (c *Controller) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// tick makes one control decision per station.
func (c *Controller) tick(now float64) {
	s := c.spec
	for i, st := range c.stations {
		from := st.Servers
		target := from
		var signal float64
		switch s.Policy {
		case PolicyReactive:
			if now-c.lastAct[i] < s.Cooldown {
				continue
			}
			signal = float64(st.Load()) / float64(from)
			switch {
			case signal >= s.UpThreshold && from < s.Max:
				target = min(from+s.Step, s.Max)
			case signal <= s.DownThreshold && from > s.Min:
				target = max(from-s.Step, s.Min)
			}
		case PolicyPredictive:
			count := st.TotalArrivals()
			rate := float64(count-c.lastCount[i]) / s.Interval
			c.lastCount[i] = count
			c.forecasters[i].Observe(rate)
			signal = c.forecasters[i].Predict()
			target = int(math.Ceil(signal / (s.Mu * s.TargetUtil)))
			target = min(max(target, s.Min), s.Max)
		}
		if target == from {
			continue
		}
		st.SetServers(target)
		c.lastAct[i] = now
		c.events = append(c.events, Event{
			Time: now, Station: st.Name, From: from, To: target, Signal: signal,
		})
	}
}

// EventLog returns the recorded scale actions in time order.
func (c *Controller) EventLog() []Event { return c.events }

// Telemetry summarizes the controller's activity from the engine start
// through end (normally the run duration).
func (c *Controller) Telemetry(end float64) Telemetry {
	t := Telemetry{Policy: c.spec.Policy, ServerSeconds: c.serverSeconds(end)}
	for _, st := range c.stations {
		t.PeakServers = max(t.PeakServers, st.Servers)
	}
	for _, e := range c.events {
		t.PeakServers = max(t.PeakServers, e.To)
		if e.To > e.From {
			t.ScaleUps++
		} else {
			t.ScaleDowns++
		}
	}
	return t
}

// serverSeconds integrates piecewise-constant provisioned capacity over
// [0, end] from the stations' starting levels and the event log. Event
// times are clamped into the window, so a window ending before the
// first tick contributes exactly startLevel × end per station, and a
// zero-length window contributes nothing — never a negative term.
func (c *Controller) serverSeconds(end float64) float64 {
	if end <= 0 {
		return 0
	}
	level := make(map[string]int, len(c.stations))
	lastT := make(map[string]float64, len(c.stations))
	for i, st := range c.stations {
		level[st.Name] = c.start[i]
	}
	var total float64
	for _, ev := range c.events {
		t := min(max(ev.Time, 0), end)
		total += float64(level[ev.Station]) * (t - lastT[ev.Station])
		level[ev.Station] = ev.To
		lastT[ev.Station] = t
	}
	for _, st := range c.stations {
		total += float64(level[st.Name]) * (end - lastT[st.Name])
	}
	return total
}
