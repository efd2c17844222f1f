package sim

import (
	"math/rand"
	"testing"
)

// countingCalendar counts the pushes that reach an engine's calendar,
// so a test reads the engine's calendar traffic without a counter on
// the production path.
type countingCalendar struct {
	calendar
	pushes int
}

func (c *countingCalendar) push(ev *scheduledEvent) {
	c.pushes++
	c.calendar.push(ev)
}

// countCalendar wraps e's calendar in a countingCalendar.
func countCalendar(e *Engine) *countingCalendar {
	c := &countingCalendar{calendar: e.cal}
	e.cal = c
	return c
}

// arrivalDraw is one pre-drawn request of the arrival model.
type arrivalDraw struct {
	gap     float64 // to the next generation instant, s
	service float64 // s
	jitter  float64 // fraction of the path's jitter, in [0, 1)
	site    int     // in [0, 5)
}

// arrivalDraws draws the arrival model's requests: five sites whose
// generation streams merge into one Poisson stream of 100 req/s (the
// paper pair's 5 × 20 req/s), and exponential service at μ = 13, the
// paper's saturation rate.
func arrivalDraws() []arrivalDraw {
	rng := rand.New(rand.NewSource(1))
	d := make([]arrivalDraw, holdTable)
	for i := range d {
		d[i] = arrivalDraw{
			gap:     rng.ExpFloat64() / 100,
			service: rng.ExpFloat64() / 13,
			jitter:  rng.Float64(),
			site:    rng.Intn(5),
		}
	}
	return d
}

// arrivalPath is a network path of the arrival model: each site's base
// RTT plus uniform jitter, as the topology specs build their paths.
type arrivalPath struct {
	name     string
	baseMs   []float64 // per site; one entry serves every site
	jitterMs float64
}

func (p arrivalPath) rtt(d arrivalDraw) float64 {
	return (p.baseMs[d.site%len(p.baseMs)] + p.jitterMs*d.jitter) / 1000
}

// arrivalCounts is what one run of the arrival model did.
type arrivalCounts struct {
	fronts, fallbacks int // front events scheduled; those sent to the calendar
	completions       int
}

// runArrivalModel replays requests through e the way the cluster
// feeder does: a pump in the arrival lane fires at each generation
// instant, in generation order, and schedules the request's arrival
// half an RTT later with AtPayloadFront; the arrival schedules its
// completion one service time later with AfterPayload. Service is
// infinite-server, so about 8 completions are pending, near the paper
// pair's mean of 9. A front event that did not land at the arrival
// FIFO's tail went to the calendar.
func runArrivalModel(e *Engine, draws []arrivalDraw, path arrivalPath, requests int) arrivalCounts {
	var c arrivalCounts
	k := 0
	complete := func(*Engine, any) { c.completions++ }
	arrive := func(e *Engine, p any) {
		e.AfterPayload(p.(*arrivalDraw).service, complete, nil)
	}
	var pump Event
	pump = func(e *Engine) {
		d := &draws[k]
		h := e.AtPayloadFront(e.Now()+path.rtt(*d)/2, arrive, d)
		c.fronts++
		if n := len(e.fifo); n == e.fifoHead || e.fifo[n-1] != h.ev {
			c.fallbacks++
		}
		k = (k + 1) & (holdTable - 1)
		if c.fronts < requests {
			e.ArmLane(e.Now()+d.gap, pump)
		}
	}
	e.ArmLane(0, pump)
	e.Run()
	return c
}

// TestArrivalFIFOCounts is the arrival FIFO's count guard. On a
// replay-shaped run of 10⁵ requests, it asserts the share of front
// events that fall back to the calendar and the calendar pushes per
// completion, each against a ceiling just above the measured value.
// The counts are exact and repeat on every run. Without the FIFO every
// arrival is a calendar push, so pushes per completion read 2.
func TestArrivalFIFOCounts(t *testing.T) {
	const requests = 100000
	draws := arrivalDraws()
	for _, c := range []struct {
		path      arrivalPath
		fallbacks float64 // ceiling on the share of front events
		pushes    float64 // ceiling on calendar pushes per completion
	}{
		{arrivalPath{"paper edge, 1 ms + 0.2 ms jitter", []float64{1}, 0.2}, 0.0013, 1.0013},          // measured 124 of 10⁵
		{arrivalPath{"paper cloud, 25 ms + 3 ms jitter", []float64{25}, 3}, 0.025, 1.025},             // 2,377
		{arrivalPath{"hetero-paths edge, 1/1/1/8/40 ms", []float64{1, 1, 1, 8, 40}, 0.2}, 0.27, 1.27}, // 26,858
		{arrivalPath{"constant 1 ms", []float64{1}, 0}, 0, 1},
	} {
		e := NewEngine(1)
		cal := countCalendar(e)
		got := runArrivalModel(e, draws, c.path, requests)
		if got.fronts != requests || got.completions != requests {
			t.Fatalf("%s: %d arrivals and %d completions, want %d each", c.path.name, got.fronts, got.completions, requests)
		}
		share := float64(got.fallbacks) / float64(got.fronts)
		perCompletion := float64(cal.pushes) / float64(got.completions)
		t.Logf("%s: %d of %d front events to the calendar (%.5f), %.5f calendar pushes per completion",
			c.path.name, got.fallbacks, got.fronts, share, perCompletion)
		if share > c.fallbacks || perCompletion > c.pushes {
			t.Errorf("%s: %.5f of front events to the calendar, %.5f calendar pushes per completion; want at most %.5f and %.5f",
				c.path.name, share, perCompletion, c.fallbacks, c.pushes)
		}
	}
}

// oracleEntry is a live event as the order oracle sees it: its time,
// its front flag and its schedule index, which counts every AtFront,
// At and ArmLane call in the order they were made.
type oracleEntry struct {
	t     float64
	front bool
	id    int
}

// oracleBefore is the order the engine promises, written out apart
// from eventBefore: time, then front events first, then schedule order.
func oracleBefore(a, b oracleEntry) bool {
	switch {
	case a.t != b.t:
		return a.t < b.t
	case a.front != b.front:
		return a.front
	}
	return a.id < b.id
}

// oracleCoverage counts what one oracle run exercised.
type oracleCoverage struct {
	fifo, fallbacks int // front events appended to the FIFO; sent to the calendar
	lane            int // lane events run
	sweeps          int // compactions that removed canceled FIFO entries
	horizons        int // RunUntil calls that left events pending
}

// runOrderOracle runs a pseudo-random schedule on backend b and checks
// every executed event against the oracle's own set of live events:
// the event must be the minimum by oracleBefore, run at its time and
// not past the current RunUntil horizon. The schedule mixes front
// events half an RTT ahead, which arrive nearly in order and so mostly
// join the arrival FIFO, with front and non-front events on a coarse
// grid, which tie at the same instant and land out of order; a lane
// pump that re-arms itself and sometimes lapses until an ordinary event
// re-arms it; single cancels and cancel bursts, which compact the
// calendar and the FIFO; and RunUntil horizons, between which it
// sometimes schedules an event at the horizon itself.
func runOrderOracle(t *testing.T, b Backend, seed int64) oracleCoverage {
	e := NewEngineBackend(seed, b)
	cal := countCalendar(e)
	rng := rand.New(rand.NewSource(seed))
	var cov oracleCoverage
	var live []oracleEntry
	var handles []Handle
	var ids []int // ids[i] is handles[i]'s schedule index
	nextID, pumps, pumpID := 0, 0, 0
	pumpArmed := false
	horizon := 0.0

	executed := func(en *Engine, id int) {
		t.Helper()
		m := -1
		for i := range live {
			if m < 0 || oracleBefore(live[i], live[m]) {
				m = i
			}
		}
		if m < 0 {
			t.Fatalf("seed %d: ran event %d at %v with no live event left", seed, id, en.Now())
		}
		if live[m].id != id {
			t.Fatalf("seed %d: ran event %d at %v, oracle minimum %+v", seed, id, en.Now(), live[m])
		}
		if en.Now() != live[m].t || en.Now() > horizon {
			t.Fatalf("seed %d: event %d ran at %v, scheduled for %v, horizon %v", seed, id, en.Now(), live[m].t, horizon)
		}
		live[m] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	// cancel cancels handles[i]. Canceling a live event keeps at most
	// half the pending events canceled; a stale handle's cancel is a
	// no-op and checks nothing, since executed live events can have
	// raised the canceled share since the last compaction.
	cancel := func(i int) {
		t.Helper()
		fifo := len(e.fifo) - e.fifoHead
		handles[i].Cancel()
		j := 0
		for j < len(live) && live[j].id != ids[i] {
			j++
		}
		if j == len(live) {
			return
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		if len(e.fifo)-e.fifoHead < fifo {
			cov.sweeps++
		}
		if e.Canceled()*2 > e.Pending() {
			t.Fatalf("seed %d: Canceled() = %d of Pending() = %d", seed, e.Canceled(), e.Pending())
		}
	}
	// grid returns a delay on a quarter-second grid: zero (a
	// same-instant tie) a quarter of the time, and now and then a long
	// jump past the calendar queue's current year.
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
		pumpID = nextID
		nextID++
		live = append(live, oracleEntry{t: at, front: true, id: pumpID})
		pumpArmed = true
		e.ArmLane(at, pump)
	}
	schedule := func(at float64, front bool) {
		id := nextID
		nextID++
		live = append(live, oracleEntry{t: at, front: front, id: id})
		ids = append(ids, id)
		if !front {
			handles = append(handles, e.At(at, body(id)))
			return
		}
		before := cal.pushes
		handles = append(handles, e.AtFront(at, body(id)))
		if cal.pushes > before {
			cov.fallbacks++
		} else {
			cov.fifo++
		}
	}
	// successor schedules one event: half the time a front event half
	// an RTT of 0.5 to 0.6 ms ahead, else a front or a non-front event
	// on the grid. Grid front events are rarer and never jump far: one
	// far front event at the FIFO's tail would send every in-order one
	// behind it to the calendar.
	successor := func(now float64) {
		switch r := rng.Intn(20); {
		case r < 10:
			schedule(now+0.0005+0.0001*rng.Float64(), true)
		case r < 12:
			schedule(now+float64(rng.Intn(4))*0.25, true)
		default:
			schedule(now+grid(), false)
		}
	}
	act := func(en *Engine) {
		if nextID < 4000 {
			for k := rng.Intn(3); k > 0; k-- {
				successor(en.Now())
			}
		}
		if len(handles) > 0 && rng.Intn(4) == 0 {
			cancel(rng.Intn(len(handles)))
		}
		if nextID < 4000 && rng.Intn(30) == 0 {
			first := len(handles)
			for k := 0; k < 10; k++ {
				successor(en.Now())
			}
			for i := first; i < len(handles); i++ {
				cancel(i)
			}
		}
	}
	body = func(id int) Event {
		return func(en *Engine) {
			executed(en, id)
			act(en)
			if !pumpArmed && pumps < 400 && rng.Intn(5) == 0 {
				armPump(en.Now() + grid())
			}
		}
	}
	pump = func(en *Engine) {
		executed(en, pumpID)
		pumpArmed = false
		pumps++
		cov.lane++
		act(en)
		if pumps < 400 && rng.Intn(8) != 0 {
			armPump(en.Now() + grid())
		}
	}
	for i := 0; i < 40; i++ {
		schedule(float64(rng.Intn(40))*0.25, i%5 == 0)
	}
	armPump(float64(rng.Intn(8)) * 0.25)
	for len(live) > 0 {
		horizon = e.Now() + 5*rng.Float64()
		e.RunUntil(horizon)
		if len(live) > 0 {
			cov.horizons++
		}
		for _, l := range live {
			if l.t <= horizon {
				t.Fatalf("seed %d: RunUntil(%v) left %+v pending", seed, horizon, l)
			}
		}
		if rng.Intn(3) == 0 && nextID < 4000 {
			schedule(e.Now(), rng.Intn(2) == 0)
		}
	}
	// Only canceled events may remain; a last run drains them unrun.
	e.Run()
	if e.Pending() != 0 || e.laneArmed {
		t.Fatalf("seed %d: the oracle holds no event, the engine %d pending (lane armed %v)", seed, e.Pending(), e.laneArmed)
	}
	return cov
}

// TestEventOrderOracle: on both calendar backends, every event of a
// random schedule runs in exactly the order oracleBefore defines, and
// the schedule exercises the arrival FIFO and the calendar fallback,
// the lane, compactions that sweep the FIFO and RunUntil horizons.
func TestEventOrderOracle(t *testing.T) {
	for name, b := range backends {
		var cov oracleCoverage
		for seed := int64(1); seed <= 20; seed++ {
			c := runOrderOracle(t, b, seed)
			cov.fifo += c.fifo
			cov.fallbacks += c.fallbacks
			cov.lane += c.lane
			cov.sweeps += c.sweeps
			cov.horizons += c.horizons
		}
		t.Logf("%s: %+v", name, cov)
		if cov.fifo == 0 || cov.fallbacks == 0 || cov.lane == 0 || cov.sweeps == 0 || cov.horizons == 0 {
			t.Errorf("%s: coverage %+v; want every path exercised", name, cov)
		}
	}
}
