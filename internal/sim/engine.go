// Package sim implements the discrete-event simulation engine that
// substitutes for the paper's EC2 testbed. It provides a simulation clock,
// an event calendar keyed on time with FIFO tie-breaking, and seeded
// random-number streams so every experiment is reproducible.
//
// The calendar recycles its event nodes through a free list and supports
// payload-carrying events (AtPayload/AfterPayload), so steady-state
// models — one completion event per in-service request, one pending
// arrival per source — schedule without allocating. Canceled events are
// compacted out of the calendar as soon as they dominate it, keeping the
// calendar proportional to the number of live events.
//
// Two calendar structures implement the same strict event order
// (time, then front flag, then schedule sequence): the default calendar
// queue (ring of adaptive time buckets, O(1) amortized insert/pop) and
// the original binary heap (O(log n)), selectable with NewEngineBackend.
// Because the order is total, the two backends pop events in exactly the
// same sequence, so every simulation result is bit-identical between
// them — the equivalence suite asserts this.
package sim

import (
	"fmt"
	"math/rand"
)

// Event is a callback scheduled to run at a simulated time.
type Event func(e *Engine)

// PayloadEvent is a callback scheduled with an attached payload. A model
// that stores one PayloadEvent value and schedules it repeatedly with
// different payloads avoids the per-request closure allocations of the
// plain Event form.
type PayloadEvent func(e *Engine, payload any)

type scheduledEvent struct {
	t        float64
	seq      uint64 // FIFO tie-break for simultaneous events
	gen      uint64 // incremented on recycle; guards stale Handles
	front    bool   // sorts before non-front events at the same time
	fn       Event
	pfn      PayloadEvent
	payload  any
	canceled bool
}

// eventBefore is the calendar's strict total order: time ascending,
// front events before non-front at the same instant, then FIFO by
// schedule sequence. Every calendar backend implements exactly this
// order, which is what makes them interchangeable bit-for-bit.
func eventBefore(a, b *scheduledEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.front != b.front {
		return a.front
	}
	return a.seq < b.seq
}

// calendar is the event-calendar structure behind an Engine: a priority
// queue over scheduledEvents ordered by eventBefore.
type calendar interface {
	push(ev *scheduledEvent)
	// pop removes and returns the minimum event. Panics when empty.
	pop() *scheduledEvent
	// peek returns the minimum event without removing it, or nil.
	peek() *scheduledEvent
	len() int
	// removeCanceled drops every canceled entry, passing each to
	// release, and preserves the relative order of the survivors.
	removeCanceled(release func(*scheduledEvent))
}

// Backend selects an Engine's calendar structure.
type Backend int

const (
	// CalendarQueue is the default: a ring of adaptive time buckets
	// with O(1) amortized insert and pop.
	CalendarQueue Backend = iota
	// BinaryHeap is the original container/heap calendar, kept
	// selectable so the equivalence suite can prove the two backends
	// pop identically.
	BinaryHeap
)

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now       float64
	cal       calendar
	free      []*scheduledEvent // recycled event nodes
	canceled  int               // canceled entries still in the calendar
	seq       uint64
	rng       *rand.Rand
	stopped   bool
	horizon   float64 // 0 = no horizon
	processed uint64
}

// NewEngine returns an engine whose random streams derive from seed,
// running on the default calendar-queue backend.
func NewEngine(seed int64) *Engine {
	return NewEngineBackend(seed, CalendarQueue)
}

// NewEngineBackend returns an engine on an explicit calendar backend.
// Both backends implement the same strict event order, so results are
// bit-identical; BinaryHeap exists for the equivalence suite and as a
// fallback reference.
func NewEngineBackend(seed int64, b Backend) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	if b == BinaryHeap {
		e.cal = &heapCalendar{}
	} else {
		e.cal = newCalendarQueue()
	}
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the engine's primary random stream.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// NewStream returns an independent random stream derived from the
// engine's seed, for components that should not perturb each other's
// random sequences.
func (e *Engine) NewStream() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Handle identifies a scheduled event so it can be canceled.
type Handle struct {
	engine *Engine
	ev     *scheduledEvent
	gen    uint64
}

// Cancel prevents the event from running. Canceling an already-run or
// already-canceled event is a no-op: event nodes are recycled, so the
// handle carries a generation stamp and only cancels the scheduling it
// was issued for.
func (h Handle) Cancel() {
	if h.ev == nil || h.ev.gen != h.gen || h.ev.canceled {
		return
	}
	h.ev.canceled = true
	e := h.engine
	e.canceled++
	// Compact once dead entries dominate the calendar, so models that
	// cancel aggressively (e.g. rescheduling a pending departure on
	// every arrival) keep the calendar proportional to the number of
	// live events.
	if e.canceled*2 > e.cal.len() {
		e.compact()
	}
}

// compact removes canceled entries from the calendar and recycles them.
func (e *Engine) compact() {
	e.cal.removeCanceled(e.release)
	e.canceled = 0
}

// acquire returns a recycled or fresh event node scheduled at time t.
func (e *Engine) acquire(t float64) *scheduledEvent {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *scheduledEvent
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &scheduledEvent{}
	}
	ev.t = t
	ev.seq = e.seq
	e.seq++
	return ev
}

// release recycles an executed or compacted event node. Bumping the
// generation invalidates any outstanding Handle to it.
func (e *Engine) release(ev *scheduledEvent) {
	ev.gen++
	ev.front = false
	ev.fn = nil
	ev.pfn = nil
	ev.payload = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics, since that indicates a logic error in the model.
func (e *Engine) At(t float64, fn Event) Handle {
	ev := e.acquire(t)
	ev.fn = fn
	e.cal.push(ev)
	return Handle{engine: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn Event) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// AtPayload schedules fn to run at absolute time t with the given
// payload. Unlike At, the callback value can be created once and reused
// across schedulings, so a steady-state model allocates nothing here.
func (e *Engine) AtPayload(t float64, fn PayloadEvent, payload any) Handle {
	ev := e.acquire(t)
	ev.pfn = fn
	ev.payload = payload
	e.cal.push(ev)
	return Handle{engine: e, ev: ev, gen: ev.gen}
}

// AfterPayload schedules fn to run delay seconds from now with the given
// payload.
func (e *Engine) AfterPayload(delay float64, fn PayloadEvent, payload any) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.AtPayload(e.now+delay, fn, payload)
}

// AtFront schedules fn at time t ahead of every non-front event already
// or later scheduled at the same instant (front events keep FIFO order
// among themselves). A source that injects arrivals lazily uses this to
// reproduce the tie-breaking of a calendar where all arrivals were
// scheduled before the run began.
func (e *Engine) AtFront(t float64, fn Event) Handle {
	ev := e.acquire(t)
	ev.front = true
	ev.fn = fn
	e.cal.push(ev)
	return Handle{engine: e, ev: ev, gen: ev.gen}
}

// AtPayloadFront is AtFront with an attached payload.
func (e *Engine) AtPayloadFront(t float64, fn PayloadEvent, payload any) Handle {
	ev := e.acquire(t)
	ev.front = true
	ev.pfn = fn
	ev.payload = payload
	e.cal.push(ev)
	return Handle{engine: e, ev: ev, gen: ev.gen}
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events in the calendar, including
// canceled events not yet popped or compacted.
func (e *Engine) Pending() int { return e.cal.len() }

// Canceled returns the number of canceled events still occupying the
// calendar. Compaction keeps this at no more than half of Pending().
func (e *Engine) Canceled() int { return e.canceled }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Run executes events until the calendar empties, Stop is called, or the
// time horizon (if set with RunUntil) is reached. It returns the final
// simulated time.
func (e *Engine) Run() float64 {
	e.stopped = false
	for e.cal.len() > 0 && !e.stopped {
		if e.horizon > 0 && e.cal.peek().t > e.horizon {
			// Leave post-horizon events in the calendar for later runs.
			e.now = e.horizon
			break
		}
		ev := e.cal.pop()
		if ev.canceled {
			e.canceled--
			e.release(ev)
			continue
		}
		if ev.t < e.now {
			panic(fmt.Sprintf("sim: time moved backwards %v -> %v", e.now, ev.t))
		}
		e.now = ev.t
		e.processed++
		// Copy the callback and recycle the node before invoking it, so
		// the callback's own scheduling can reuse the node immediately.
		fn, pfn, payload := ev.fn, ev.pfn, ev.payload
		e.release(ev)
		if pfn != nil {
			pfn(e, payload)
		} else {
			fn(e)
		}
	}
	return e.now
}

// RunUntil executes events up to and including time horizon, then stops.
// Events scheduled after the horizon remain in the calendar.
func (e *Engine) RunUntil(horizon float64) float64 {
	if horizon < e.now {
		panic(fmt.Sprintf("sim: horizon %v before now %v", horizon, e.now))
	}
	e.horizon = horizon
	t := e.Run()
	e.horizon = 0
	if t < horizon && e.cal.len() == 0 {
		// Calendar drained before the horizon: advance the clock so
		// repeated RunUntil calls observe monotonic time.
		e.now = horizon
		t = horizon
	}
	return t
}

// Every schedules fn to run now+period, then every period thereafter,
// until the returned Ticker is stopped or the engine halts.
func (e *Engine) Every(period float64, fn Event) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	// One wrapper closure for the ticker's lifetime; rescheduling reuses it.
	t.fire = func(e *Engine) {
		if t.stopped {
			return
		}
		t.fn(e)
		if !t.stopped {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

// Ticker reschedules a recurring event.
type Ticker struct {
	engine  *Engine
	period  float64
	fn      Event
	fire    Event
	handle  Handle
	stopped bool
}

func (t *Ticker) schedule() {
	t.handle = t.engine.After(t.period, t.fire)
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}
