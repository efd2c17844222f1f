package sim

import (
	"math/rand"
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

// TestCalendarQueueSmallPopulationAllocs pins the resize-thrash fix:
// a small engine's live event population (a handful of pending
// arrivals, completions, and a pump) oscillates by a few events per
// simulated request, and with a 4-bucket floor and a half-count shrink
// threshold that oscillation crossed a resize boundary on nearly every
// push/pop pair — one allocating resize per simulated request (the
// shards-2 allocation cliff of a 10⁶-request sharded replay: ~977k
// allocs at two 4-site engines vs ~2.6k at four 2-site ones). Small
// populations must never resize: total allocations for tens of
// thousands of push/pop cycles stay in the dozens, not the tens of
// thousands.
func TestCalendarQueueSmallPopulationAllocs(t *testing.T) {
	const cycles = 20000
	// Pre-built event nodes, recycled through a free stack, so the
	// workload itself allocates nothing.
	free := make([]*scheduledEvent, 16)
	for i := range free {
		free[i] = &scheduledEvent{}
	}
	allocs := testing.AllocsPerRun(2, func() {
		q := newCalendarQueue()
		nfree := len(free)
		var seq uint64
		now := 0.0
		push := func() {
			nfree--
			ev := free[nfree]
			now += 0.05
			ev.t = now
			ev.seq = seq
			ev.canceled = false
			seq++
			q.push(ev)
		}
		pop := func() {
			free[nfree] = q.pop()
			nfree++
		}
		// Oscillate the live population between 3 and 9 — the band a
		// 4-site engine's calendar lives in.
		for i := 0; i < 9; i++ {
			push()
		}
		for c := 0; c < cycles; c++ {
			for q.len() > 3 {
				pop()
			}
			for q.len() < 9 {
				push()
			}
		}
		for q.len() > 0 {
			pop()
		}
	})
	// One bucket-ring allocation plus one-time bucket-slice growth
	// across the ring: a few hundred at most. Resize thrash puts this
	// at ~2 per cycle (~40000).
	if allocs > 500 {
		t.Fatalf("small-population churn allocated %.0f times over %d cycles; calendar is resize-thrashing", allocs, cycles)
	}
}
