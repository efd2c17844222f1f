package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

var backends = map[string]Backend{
	"calendar-queue": CalendarQueue,
	"binary-heap":    BinaryHeap,
}

// popTrace records one executed event: the id assigned at schedule time
// and the clock when it ran.
type popTrace struct {
	id int
	at float64
}

// runRandomSchedule executes a deterministic pseudo-random scheduling
// program on the given backend and returns the execution trace. All
// randomness is drawn inside callbacks in execution order, so two
// backends produce identical traces exactly when they pop events in the
// identical order.
func runRandomSchedule(b Backend, seed int64) []popTrace {
	e := NewEngineBackend(seed, b)
	rng := rand.New(rand.NewSource(seed))
	var trace []popTrace
	var handles []Handle
	nextID := 0

	var body func(id int) Event
	schedule := func(at float64, front bool) {
		id := nextID
		nextID++
		if front {
			handles = append(handles, e.AtFront(at, body(id)))
		} else {
			handles = append(handles, e.At(at, body(id)))
		}
	}
	body = func(id int) Event {
		return func(en *Engine) {
			trace = append(trace, popTrace{id: id, at: en.Now()})
			for k := rng.Intn(3); k > 0; k-- {
				schedule(en.Now()+rng.Float64()*10, rng.Intn(4) == 0)
			}
			if len(handles) > 0 && rng.Intn(5) == 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		}
	}
	for i := 0; i < 40; i++ {
		schedule(rng.Float64()*100, i%5 == 0)
	}
	e.Run()
	return trace
}

// TestBackendsPopIdentically: the calendar queue and the binary heap
// execute recorded random schedules — nested scheduling, front events,
// cancels — in exactly the same order.
func TestBackendsPopIdentically(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		want := runRandomSchedule(BinaryHeap, seed)
		got := runRandomSchedule(CalendarQueue, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events on calendar queue, %d on heap", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop %d diverges: calendar queue %+v, heap %+v",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestSameTimeFIFOAcrossResizes: a same-instant event block keeps its
// schedule order even though surrounding load forces the bucket ring
// through multiple grows and shrinks (which rebuild every bucket).
func TestSameTimeFIFOAcrossResizes(t *testing.T) {
	for name, b := range backends {
		e := NewEngineBackend(1, b)
		var tied []int
		// Spread load first so the ring grows well past its minimum.
		for i := 0; i < 300; i++ {
			e.At(float64(i)*0.1, func(*Engine) {})
		}
		// The tie block under test, interleaved front and non-front.
		for i := 0; i < 64; i++ {
			i := i
			if i%4 == 0 {
				e.AtFront(50, func(*Engine) { tied = append(tied, i) })
			} else {
				e.At(50, func(*Engine) { tied = append(tied, i) })
			}
		}
		// Draining the early spread shrinks the ring back down before
		// t=50, so the tie block survives at least one rebuild.
		e.Run()
		if len(tied) != 64 {
			t.Fatalf("%s: ran %d tied events, want 64", name, len(tied))
		}
		// Front events first (in schedule order), then the rest FIFO.
		var want []int
		for i := 0; i < 64; i += 4 {
			want = append(want, i)
		}
		for i := 0; i < 64; i++ {
			if i%4 != 0 {
				want = append(want, i)
			}
		}
		for i := range want {
			if tied[i] != want[i] {
				t.Fatalf("%s: tie order[%d] = %d, want %d (full: %v)", name, i, tied[i], want[i], tied)
			}
		}
	}
}

// TestCancelCompactionInvariant: after every cancel, canceled entries
// never exceed half the calendar (the compaction contract), canceled
// events never run, and survivors run in order.
func TestCancelCompactionInvariant(t *testing.T) {
	for name, b := range backends {
		e := NewEngineBackend(1, b)
		rng := rand.New(rand.NewSource(7))
		ran := make(map[int]bool)
		var handles []Handle
		canceled := make(map[int]bool)
		for i := 0; i < 500; i++ {
			i := i
			handles = append(handles, e.At(rng.Float64()*100, func(*Engine) { ran[i] = true }))
		}
		for _, i := range rng.Perm(500)[:300] {
			handles[i].Cancel()
			canceled[i] = true
			if e.Canceled() > e.Pending()/2 {
				t.Fatalf("%s: Canceled()=%d > Pending()/2=%d after cancel",
					name, e.Canceled(), e.Pending()/2)
			}
		}
		e.Run()
		for i := 0; i < 500; i++ {
			if canceled[i] && ran[i] {
				t.Fatalf("%s: canceled event %d ran", name, i)
			}
			if !canceled[i] && !ran[i] {
				t.Fatalf("%s: live event %d never ran", name, i)
			}
		}
	}
}

// TestCalendarQueueMonotoneUnderChurn: random schedule/pop interleaving
// (including far-ahead tickers that force year-jump scans) never pops
// out of order.
func TestCalendarQueueMonotoneUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		last := -1.0
		ok := true
		check := func(en *Engine) {
			if en.Now() < last {
				ok = false
			}
			last = en.Now()
		}
		for i := 0; i < 30; i++ {
			e.At(rng.Float64()*5, func(en *Engine) {
				check(en)
				switch rng.Intn(3) {
				case 0: // near event
					en.After(rng.Float64(), check)
				case 1: // far event: lands years ahead of the scan floor
					en.After(1000+rng.Float64()*1000, check)
				case 2: // same-instant event
					en.At(en.Now(), check)
				}
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRunUntilAcrossBackends: horizon handling (peek without pop, then
// later resume) is identical between backends even when the peeked
// minimum is far beyond the horizon.
func TestRunUntilAcrossBackends(t *testing.T) {
	for name, b := range backends {
		e := NewEngineBackend(1, b)
		var order []float64
		rec := func(en *Engine) { order = append(order, en.Now()) }
		e.At(1, rec)
		e.At(5000, rec) // far beyond the first horizon
		e.RunUntil(10)
		// Scheduling between runs must not be lost behind the scan floor.
		e.At(20, rec)
		e.At(15, rec)
		e.Run()
		want := []float64{1, 15, 20, 5000}
		if len(order) != len(want) {
			t.Fatalf("%s: ran %d events, want %d (%v)", name, len(order), len(want), order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("%s: order = %v, want %v", name, order, want)
			}
		}
	}
}

// TestCalendarQueueSmallPopulationAllocs: a small engine's event
// population oscillates by a few events per simulated request, so a
// calendar that rebuilds storage where the population crosses a
// threshold allocates on nearly every push/pop pair (a 4-bucket ring
// once cost ~977k allocations per 10⁶-request sharded replay). Each row
// fills a fresh calendar to its start population, swings it lo↔hi and
// counts the exact allocations of the first 20,000 cycles and of cycles
// 100,001–120,000. A population that stays in the small mode reuses the
// list and allocates nothing at all. One that reaches the ring
// allocates only when a bucket slice grows to a new peak load: over the
// first cycles that measured 322 allocations for 8↔80, 158 for ±1
// around cqPromote and 72 for 12↔13 in the ring (the table's ceilings
// sit a little above), and the later window allocates nothing (on this
// workload the totals stop rising by cycle 80,000). The calendar
// switches mode only where the population crosses a threshold in the
// direction that switches: twice per 8↔80 cycle, and at most once for a
// ±1 oscillation.
func TestCalendarQueueSmallPopulationAllocs(t *testing.T) {
	const (
		first   = 20000  // cycles counted from the fill
		settled = 100000 // cycles run before the steady-state window
		window  = 20000  // cycles in the steady-state window
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	for _, c := range []struct {
		name           string
		start, lo, hi  int    // fill to start, then swing lo↔hi
		firstAllocs    uint64 // at most, over the first cycles
		switchPerCycle int
		switchAtMost   int // over the first cycles, when switchPerCycle is 0
	}{
		{name: "3-9, a 4-site engine's band", start: 9, lo: 3, hi: 9},
		{name: "around cqPromote, small", start: cqPromote - 2, lo: cqPromote - 2, hi: cqPromote - 1},
		{name: "8-80", start: 8, lo: 8, hi: 80, firstAllocs: 340, switchPerCycle: 2},
		{name: "around cqPromote, crossing", start: cqPromote - 1, lo: cqPromote - 1, hi: cqPromote + 1, firstAllocs: 170, switchAtMost: 1},
		{name: "around cqDemote, big", start: cqPromote, lo: cqDemote, hi: cqDemote + 1, firstAllocs: 80},
		{name: "around cqDemote, crossing", start: cqPromote, lo: cqDemote - 1, hi: cqDemote + 1, switchAtMost: 1},
	} {
		service, _ := holdIncrements()
		// Pre-built event nodes, recycled through a free stack, so the
		// workload itself allocates nothing.
		free := make([]*scheduledEvent, max(c.start, c.hi))
		for i := range free {
			free[i] = &scheduledEvent{}
		}
		q := newCalendarQueue()
		var seq uint64
		k, switches := 0, 0
		push := func() {
			ev := free[len(free)-1]
			free = free[:len(free)-1]
			k = (k + 1) & (holdTable - 1)
			ev.t, ev.seq = q.curT+service[k], seq
			seq++
			was := q.big
			q.push(ev)
			if q.big != was {
				switches++
			}
		}
		pop := func() {
			was := q.big
			free = append(free, q.pop())
			if q.big != was {
				switches++
			}
		}
		cycles := func(n int) {
			for i := 0; i < n; i++ {
				for q.len() < c.hi {
					push()
				}
				for q.len() > c.lo {
					pop()
				}
			}
		}
		for q.len() < c.start {
			push()
		}
		switches = 0
		m := mallocs()
		cycles(first)
		if got := mallocs() - m; got > c.firstAllocs {
			t.Errorf("%s: %d allocations over the first %d cycles, want at most %d", c.name, got, first, c.firstAllocs)
		}
		switch {
		case c.switchPerCycle > 0 && switches != c.switchPerCycle*first:
			t.Errorf("%s: %d mode switches over %d cycles, want %d per cycle", c.name, switches, first, c.switchPerCycle)
		case c.switchPerCycle == 0 && switches > c.switchAtMost:
			t.Errorf("%s: %d mode switches, want at most %d", c.name, switches, c.switchAtMost)
		}
		cycles(settled - first)
		m = mallocs()
		cycles(window)
		if got := mallocs() - m; got != 0 {
			t.Errorf("%s: %d allocations over cycles %d-%d, want 0", c.name, got, settled+1, settled+window)
		}
	}
}

// swingRun is one run of runSwingSchedule: the execution trace, and for
// the calendar-queue backend how often it switched mode and in which
// modes compaction ran.
type swingRun struct {
	trace       []popTrace
	peak        int
	switches    int
	compactions [2]int // in small mode, in big mode
}

// runSwingSchedule drives an engine through a population that rises
// from 0 to 300 pending events and drains back to 0, four times, so the
// calendar queue crosses both mode thresholds in both directions. Each
// event schedules successors — at its own instant (a tie), on a coarse
// grid of whole seconds (ties across events), or an exponential time
// ahead — as front or non-front events, and sometimes cancels one
// handle or, rarely while it drains, the 200 most recent ones, so
// compaction runs in both modes. The run advances through random RunUntil horizons, and
// schedules an event at the horizon between some of them. All
// randomness is drawn in execution order, so two backends give the same
// trace exactly when they pop in the same order.
func runSwingSchedule(b Backend, seed int64) swingRun {
	e := NewEngineBackend(seed, b)
	cq, _ := e.cal.(*calendarQueue)
	rng := rand.New(rand.NewSource(seed))
	var run swingRun
	var handles []Handle
	rising, swings, nextID := true, 0, 0
	big := false
	observe := func() {
		if cq != nil && cq.big != big {
			big = cq.big
			run.switches++
		}
		run.peak = max(run.peak, e.Pending())
	}
	var body func(id int) Event
	schedule := func(at float64) {
		id := nextID
		nextID++
		if rng.Intn(4) == 0 {
			handles = append(handles, e.AtFront(at, body(id)))
		} else {
			handles = append(handles, e.At(at, body(id)))
		}
		observe()
	}
	cancel := func(h Handle) {
		before, mode := e.Canceled(), 0
		if cq != nil && cq.big {
			mode = 1
		}
		h.Cancel()
		if before > 0 && e.Canceled() == 0 {
			run.compactions[mode]++
		}
		observe()
	}
	body = func(id int) Event {
		return func(en *Engine) {
			run.trace = append(run.trace, popTrace{id: id, at: en.Now()})
			observe()
			live := en.Pending() - en.Canceled()
			if rising && live >= 300 {
				rising = false
			}
			if !rising && live == 0 {
				rising = true
				swings++
			}
			if swings == 4 {
				return
			}
			n := rng.Intn(2) // falling: half a successor on average
			if rising {
				n = 1 + rng.Intn(3)
			}
			for ; n > 0; n-- {
				switch rng.Intn(3) {
				case 0:
					schedule(en.Now())
				case 1:
					schedule(math.Floor(en.Now()) + float64(1+rng.Intn(3)))
				default:
					schedule(en.Now() + rng.ExpFloat64())
				}
			}
			switch r := rng.Intn(100); {
			case r < 20 && len(handles) > 0:
				cancel(handles[rng.Intn(len(handles))])
			case r == 20 && !rising:
				for _, h := range handles[max(0, len(handles)-200):] {
					cancel(h)
				}
			}
		}
	}
	for {
		if e.Pending() == 0 {
			// Drained by a cancel no event saw: the swing is over.
			if !rising {
				rising = true
				swings++
			}
			if swings == 4 {
				return run
			}
			schedule(e.Now())
		}
		e.RunUntil(e.Now() + 5*rng.Float64())
		if rng.Intn(3) == 0 && swings < 4 {
			schedule(e.Now())
		}
	}
}

// TestCalendarQueueModeSwitchesMatchHeap: across repeated rises from an
// empty calendar to 300 pending events and back, with cancels,
// compactions, RunUntil horizons and same-instant front/non-front ties,
// the calendar queue pops exactly as the binary heap does, while
// switching between its sorted list and its bucket ring on every swing
// and compacting in both modes.
func TestCalendarQueueModeSwitchesMatchHeap(t *testing.T) {
	var compactions [2]int
	for seed := int64(1); seed <= 8; seed++ {
		want := runSwingSchedule(BinaryHeap, seed)
		got := runSwingSchedule(CalendarQueue, seed)
		if len(got.trace) != len(want.trace) {
			t.Fatalf("seed %d: %d events on calendar queue, %d on heap", seed, len(got.trace), len(want.trace))
		}
		for i := range want.trace {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("seed %d: pop %d diverges: calendar queue %+v, heap %+v",
					seed, i, got.trace[i], want.trace[i])
			}
		}
		if got.peak < 300 || got.switches < 8 {
			t.Errorf("seed %d: peak %d pending, %d mode switches; want 300+ and 8+ (four swings)", seed, got.peak, got.switches)
		}
		compactions[0] += got.compactions[0]
		compactions[1] += got.compactions[1]
	}
	if compactions[0] == 0 || compactions[1] == 0 {
		t.Errorf("compactions %d in small mode, %d in big mode; want both exercised", compactions[0], compactions[1])
	}
}
