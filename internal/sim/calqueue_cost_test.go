package sim

import (
	"fmt"
	"testing"
)

// calCosts tallies the work a calendarQueue does, read from its own
// state between operations, so the production path carries no counter.
type calCosts struct {
	pushes, pops int
	shifted      int // entries moved up by a push's sorted insert
	copied       int // entries moved down by a pop
	scanned      int // buckets findMin visits to locate a pop's minimum
	switches     int // small↔big mode changes
}

func (c calCosts) String() string {
	return fmt.Sprintf("%.2f shifted/push, %.2f copied/pop, %.2f scanned/pop, %d mode switches",
		float64(c.shifted)/float64(c.pushes), float64(c.copied)/float64(c.pops),
		float64(c.scanned)/float64(c.pops), c.switches)
}

// bucketsScanned replays findMin's search and returns how many buckets
// it visits: the forward scan up to the accepted bucket, or a full lap
// plus the direct scan over every bucket head.
func bucketsScanned(q *calendarQueue) int {
	nb := int64(len(q.buckets))
	for i := int64(0); i < nb; i++ {
		v := q.vb + i
		b := q.buckets[v&q.mask]
		if len(b) > 0 && q.vbucket(b[0].t) <= v {
			return int(i) + 1
		}
	}
	return 2 * int(nb)
}

// holdCosts runs BenchmarkCalendarHold's model straight on a
// calendarQueue: pending events, half front-priority arrivals and half
// completions, each replaced by its successor when it pops. Before each
// operation it books the work the operation will do, read from the
// queue's state. It warms up for warm pops and returns the work of the
// next ops pops and pushes, with the mode switches of the whole run.
func holdCosts(pending, warm, ops int) calCosts {
	service, gap := holdIncrements()
	q := newCalendarQueue()
	var c calCosts
	var seq uint64
	push := func(ev *scheduledEvent, t float64, front bool) {
		ev.t, ev.front, ev.seq = t, front, seq
		seq++
		dst := q.list[q.head:]
		if q.big {
			dst = q.buckets[q.vbucket(ev.t)&q.mask]
		}
		for _, e := range dst {
			if eventBefore(ev, e) {
				c.shifted++
			}
		}
		c.pushes++
		was := q.big
		q.push(ev)
		if q.big != was {
			c.switches++
		}
	}
	for i := 0; i < pending; i++ {
		if i%2 == 0 {
			push(&scheduledEvent{}, gap[i&(holdTable-1)], true)
		} else {
			push(&scheduledEvent{}, service[i&(holdTable-1)], false)
		}
	}
	k := 0
	for i := 0; i < warm+ops; i++ {
		if i == warm {
			c = calCosts{switches: c.switches}
		}
		if q.big {
			c.scanned += bucketsScanned(q)
			c.copied += len(q.buckets[q.findMin()]) - 1
		}
		c.pops++
		was := q.big
		ev := q.pop()
		if q.big != was {
			c.switches++
		}
		k = (k + 1) & (holdTable - 1)
		if ev.front {
			push(ev, ev.t+service[k], false)
		} else {
			push(ev, ev.t+gap[k], true)
		}
	}
	return c
}

// TestCalendarQueueHoldCosts is the calendar's crowding guard: on the
// hold model, at every population of BenchmarkCalendarHold, the work
// per operation stays under a ceiling set just above the measured
// value. The counts are exact and repeat on every run, so a crowded
// calendar fails here on any machine:
//   - below cqPromote the list shifts about half the population per
//     push, and a pop copies and scans nothing;
//   - from cqPromote on, the ring holds a couple of events per bucket
//     near the head. A width measured from the whole span, which a
//     tail of far events stretches, reads 9.9 copied/pop at 125
//     pending and 20.6 at 10⁵; keeping a 1-s width at promotion puts
//     the 48-event row in one bucket, at 22.3 shifted/push and 44.0
//     copied/pop; and without the small mode the 9-event row reads
//     7.5 copied/pop;
//   - the population switches mode once, on its way up, and never
//     while it holds.
func TestCalendarQueueHoldCosts(t *testing.T) {
	for _, c := range []struct {
		pending               int
		shifted, copied, scan float64 // ceilings per operation
	}{
		{9, 4.5, 0, 0},          // measured 4.06 shifted/push
		{32, 17, 0, 0},          // 15.73
		{48, 1.1, 2.0, 1.6},     // 0.89, 1.75, 1.42
		{64, 1.4, 2.6, 1.5},     // 1.18, 2.34, 1.32
		{125, 1.7, 3.3, 1.4},    // 1.51, 3.00, 1.19
		{250, 1.7, 3.4, 1.4},    // 1.54, 3.06, 1.19
		{100000, 1.4, 4.0, 1.4}, // 1.22, 3.60, 1.24
	} {
		got := holdCosts(c.pending, 2*c.pending, 20000)
		shifted := float64(got.shifted) / float64(got.pushes)
		copied := float64(got.copied) / float64(got.pops)
		scanned := float64(got.scanned) / float64(got.pops)
		wantSwitches := 0
		if c.pending >= cqPromote {
			wantSwitches = 1
		}
		if shifted > c.shifted || copied > c.copied || scanned > c.scan || got.switches != wantSwitches {
			t.Errorf("pending %d: %v; want at most %.2f shifted/push, %.2f copied/pop, %.2f scanned/pop and %d mode switches",
				c.pending, got, c.shifted, c.copied, c.scan, wantSwitches)
		}
	}
}
