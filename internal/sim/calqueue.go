package sim

import (
	"math"
	"slices"
)

const (
	// cqPromote and cqDemote bound the small mode. A calendar holding
	// fewer than cqPromote entries keeps them in one sorted list; at
	// cqPromote it builds the bucket ring, and it returns to the list
	// only when the count falls below cqDemote. The 4x gap between them
	// keeps a population that swings around either threshold from
	// switching on every push/pop pair. On BenchmarkCalendarHold's model
	// the list and the ring cost about the same per event from 24 to 48
	// entries; from 64 on the list costs more, as its shifts grow with
	// the count.
	cqPromote = 48
	cqDemote  = cqPromote / 4

	// cqMinBuckets is the ring's size at promotion and its floor: a
	// power of two (for mask indexing) above cqPromote/2, so a promoted
	// population of 48 entries sits at 1.5 per bucket and the ring first
	// grows at 2·32 = 64 entries. Its shrink threshold (len/4 = 8) lies
	// below cqDemote, so a shrinking population leaves the ring before
	// the ring would halve below this size.
	cqMinBuckets = 32
	cqMaxBuckets = 1 << 22 // growth cap: beyond this, buckets just get denser
	cqMinWidth   = 1e-9    // floor keeps t/width finite and monotone
)

// calendarQueue is the default calendar. It has two modes.
//
// Small mode: fewer than cqPromote entries sit in one slice, list[head:],
// sorted by eventBefore. peek and pop read and advance the head, so
// neither searches nor shifts; push inserts from the tail, shifting
// only the entries later than the new event. The slice compacts in
// place when its tail reaches its capacity. Engines that replay a pair
// of stations hold 6–18 events, so they never leave this mode.
//
// Big mode: a ring of time buckets in the style of Brown's calendar
// queue. Each bucket covers `width` seconds and holds its events sorted
// by eventBefore; bucket index is the event's virtual bucket
// (⌊t/width⌋) masked into the ring, so one ring lap spans
// width·len(buckets) seconds (a "year") and far-future events share
// buckets with near ones. Insert is the same sorted insert into one
// bucket, pop scans forward from the last popped event's virtual
// bucket, and the ring doubles/halves around the live event count —
// O(1) amortized insert and pop against the heap's O(log n). Every
// rebuild (promotion and resize) measures the width from the sorted
// entries: twice the mean spacing of their earlier half, so a bucket
// near the head, where pops happen, holds a couple of events. The
// whole span would not do: a tail of far events stretches it, and on
// the hold model the head bucket then held 10 to 20 events.
//
// The pop scan accepts a bucket head only when its virtual bucket lies
// at or before the scan position. Comparing integer virtual indices —
// never accumulating bucket-top times — keeps the acceptance test exact
// under floating point: an accepted head is provably the eventBefore
// minimum. A full lap with no acceptance means every pending event is
// at least a year ahead; a direct scan over the bucket heads then finds
// the minimum, and the pop itself advances the scan floor to it.
//
// Switching modes and resizing reuse the list's and the ring's storage,
// so a population that oscillates between the modes allocates nothing
// once the list and the buckets have grown to the sizes it needs. A
// calendar keeps the storage of its largest population, as the
// engine's free list of event nodes does.
type calendarQueue struct {
	n    int // entries, live + canceled
	big  bool
	curT float64 // last popped event time: the ring's scan floor

	// list holds the entries in small mode, sorted from head; in big
	// mode it is empty and serves as resize's sort buffer.
	list []*scheduledEvent
	head int

	buckets [][]*scheduledEvent // spare buckets past len keep their storage
	mask    int64               // len(buckets)-1
	width   float64             // seconds per bucket
	vb      int64               // scan floor: virtual bucket of curT

	// peek caches the located minimum's bucket so the pop following a
	// horizon check re-locates nothing.
	minCached bool
	minBucket int64
}

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		list:  make([]*scheduledEvent, 0, 2*cqPromote),
		width: 1,
	}
}

func (q *calendarQueue) len() int { return q.n }

// vbucket maps a time to its virtual bucket index. Times so large that
// t/width overflows int64 are clamped into one far "year"; order among
// them still holds because buckets sort by eventBefore.
func (q *calendarQueue) vbucket(t float64) int64 {
	v := t / q.width
	if v >= math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(v)
}

// insertSorted places ev into b[lo:], which is sorted by eventBefore,
// and returns the extended slice. Scanning from the tail makes the
// common cases — later times, and same-instant FIFO sequences — a
// plain append; nothing below lo moves.
func insertSorted(b []*scheduledEvent, lo int, ev *scheduledEvent) []*scheduledEvent {
	b = append(b, ev)
	i := len(b) - 1
	for i > lo && eventBefore(ev, b[i-1]) {
		b[i] = b[i-1]
		i--
	}
	b[i] = ev
	return b
}

func (q *calendarQueue) push(ev *scheduledEvent) {
	q.n++
	if !q.big {
		if len(q.list) == cap(q.list) && q.head > 0 {
			live := copy(q.list, q.list[q.head:])
			clear(q.list[live:])
			q.list = q.list[:live]
			q.head = 0
		}
		q.list = insertSorted(q.list, q.head, ev)
		if q.n >= cqPromote {
			q.promote()
		}
		return
	}
	bi := q.vbucket(ev.t) & q.mask
	q.buckets[bi] = insertSorted(q.buckets[bi], 0, ev)
	q.minCached = false
	if q.n > 2*len(q.buckets) && len(q.buckets) < cqMaxBuckets {
		q.resize(2 * len(q.buckets))
	}
}

// findMin locates the bucket holding the eventBefore minimum. It never
// mutates the scan floor: only pop advances vb (from the popped event's
// own time), so a peek that looks far ahead cannot strand later pushes
// behind the floor.
func (q *calendarQueue) findMin() int64 {
	nb := int64(len(q.buckets))
	for i := int64(0); i < nb; i++ {
		v := q.vb + i
		b := q.buckets[v&q.mask]
		if len(b) > 0 && q.vbucket(b[0].t) <= v {
			return v & q.mask
		}
	}
	// Every pending event is beyond the current year: pick the earliest
	// bucket head directly (each head is its bucket's minimum).
	var best *scheduledEvent
	var bi int64
	for i, b := range q.buckets {
		if len(b) > 0 && (best == nil || eventBefore(b[0], best)) {
			best = b[0]
			bi = int64(i)
		}
	}
	return bi
}

func (q *calendarQueue) peek() *scheduledEvent {
	if q.n == 0 {
		return nil
	}
	if !q.big {
		return q.list[q.head]
	}
	if !q.minCached {
		q.minBucket = q.findMin()
		q.minCached = true
	}
	return q.buckets[q.minBucket][0]
}

func (q *calendarQueue) pop() *scheduledEvent {
	if q.n == 0 {
		panic("sim: pop from an empty calendar")
	}
	q.n--
	if !q.big {
		ev := q.list[q.head]
		q.list[q.head] = nil
		q.head++
		q.curT = ev.t
		return ev
	}
	var bi int64
	if q.minCached {
		bi = q.minBucket
		q.minCached = false
	} else {
		bi = q.findMin()
	}
	b := q.buckets[bi]
	ev := b[0]
	copy(b, b[1:])
	b[len(b)-1] = nil
	q.buckets[bi] = b[:len(b)-1]
	q.curT = ev.t
	q.vb = q.vbucket(ev.t)
	if q.n < cqDemote {
		q.demote()
	} else if q.n < len(q.buckets)/4 && len(q.buckets) > cqMinBuckets {
		// Shrink at a quarter, not half, of the bucket count: growth
		// doubles at n > 2·len, so a half-threshold shrink sits one pop
		// away from the population that just grew the ring — an
		// oscillating population would resize on nearly every push/pop
		// pair. The quarter threshold requires a 4x swing between
		// resizes.
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

func (q *calendarQueue) removeCanceled(release func(*scheduledEvent)) {
	if !q.big {
		live := q.dropCanceled(q.list[q.head:], release)
		q.list = q.list[:q.head+len(live)]
		return
	}
	for bi, b := range q.buckets {
		q.buckets[bi] = q.dropCanceled(b, release)
	}
	q.minCached = false
	if q.n < cqDemote {
		q.demote()
		return
	}
	nb := len(q.buckets)
	for nb > cqMinBuckets && q.n < nb/4 {
		nb /= 2
	}
	if nb != len(q.buckets) {
		q.resize(nb)
	}
}

// dropCanceled releases b's canceled entries and returns the survivors,
// in order, in b's own storage.
func (q *calendarQueue) dropCanceled(b []*scheduledEvent, release func(*scheduledEvent)) []*scheduledEvent {
	live := b[:0]
	for _, ev := range b {
		if ev.canceled {
			release(ev)
			q.n--
		} else {
			live = append(live, ev)
		}
	}
	clear(b[len(live):])
	return live
}

// promote moves the small-mode list, already sorted, into a ring of
// cqMinBuckets buckets.
func (q *calendarQueue) promote() {
	q.big = true
	q.fill(cqMinBuckets)
}

// demote moves every entry from the ring back into the sorted list.
func (q *calendarQueue) demote() {
	q.list = q.gather(q.list[:0])
	q.head = 0
	q.big = false
}

// resize rebuilds the ring with nb buckets, sorting through the list.
func (q *calendarQueue) resize(nb int) {
	q.list = q.gather(q.list[:0])
	q.fill(nb)
}

// gather empties every bucket into dst, sorted by eventBefore (a strict
// total order — seq is unique — so the unstable sort is deterministic).
func (q *calendarQueue) gather(dst []*scheduledEvent) []*scheduledEvent {
	for i, b := range q.buckets {
		dst = append(dst, b...)
		clear(b)
		q.buckets[i] = b[:0]
	}
	slices.SortFunc(dst, func(a, b *scheduledEvent) int {
		if eventBefore(a, b) {
			return -1
		}
		if eventBefore(b, a) {
			return 1
		}
		return 0
	})
	return dst
}

// fill distributes the list's entries, sorted, into nb empty buckets,
// reusing the ring's storage, and leaves the list empty. The width is
// twice the mean spacing of the earlier half of the entries; entries
// whose earlier half spans no time keep the old width. Filling in
// sorted order keeps every bucket sorted with plain appends.
func (q *calendarQueue) fill(nb int) {
	sorted := q.list[q.head:]
	if m := len(sorted) / 2; m > 0 {
		if span := sorted[m].t - sorted[0].t; span > 0 {
			q.width = max(span/float64(m)*2, cqMinWidth)
		}
	}
	if nb > cap(q.buckets) {
		q.buckets = append(q.buckets[:cap(q.buckets)], make([][]*scheduledEvent, nb-cap(q.buckets))...)
	}
	q.buckets = q.buckets[:nb]
	q.mask = int64(nb) - 1
	q.vb = q.vbucket(q.curT)
	q.minCached = false
	for _, ev := range sorted {
		bi := q.vbucket(ev.t) & q.mask
		q.buckets[bi] = append(q.buckets[bi], ev)
	}
	clear(q.list)
	q.list = q.list[:0]
	q.head = 0
}
