package sim

import (
	"math"
	"sort"
)

const (
	// cqMinBuckets is the smallest ring (power of two for mask
	// indexing). It must sit well above typical steady-state event
	// populations: small engines hold a handful of live events (one
	// pending arrival per source, one completion per busy server, a
	// pump), and a floor of 4 put that population astride both resize
	// thresholds — grow at n > 2·len, shrink at n < len/4 — so nearly
	// every push/pop pair triggered an allocating resize (~1 alloc per
	// simulated request; the shards-2 allocation cliff of a 10⁶-request
	// sharded replay: two 4-site engines thrashing at ~977k allocs per
	// replay where shards-4's 2-site engines, under every threshold,
	// sat at ~2.6k). At 64 buckets a
	// population must exceed 128 before the ring ever resizes. The cost
	// is 64 slice headers (~1.5 KB) per engine, paid once.
	cqMinBuckets = 64
	cqMaxBuckets = 1 << 22 // growth cap: beyond this, buckets just get denser
	cqMinWidth   = 1e-9    // floor keeps t/width finite and monotone
)

// calendarQueue is the default calendar: a ring of time buckets in the
// style of Brown's calendar queue. Each bucket covers `width` seconds
// and holds its events sorted by eventBefore; bucket index is the
// event's virtual bucket (⌊t/width⌋) masked into the ring, so one ring
// lap spans width·len(buckets) seconds (a "year") and far-future events
// share buckets with near ones. Insert appends at the bucket tail
// (arrivals are mostly time-increasing, and same-instant FIFO events
// always append), pop scans forward from the last popped event's
// virtual bucket, and the ring doubles/halves around the live event
// count — O(1) amortized insert and pop against the heap's O(log n).
//
// The pop scan accepts a bucket head only when its virtual bucket lies
// at or before the scan position. Comparing integer virtual indices —
// never accumulating bucket-top times — keeps the acceptance test exact
// under floating point: an accepted head is provably the eventBefore
// minimum. A full lap with no acceptance means every pending event is
// at least a year ahead; a direct scan over the bucket heads then finds
// the minimum, and the pop itself advances the scan floor to it.
type calendarQueue struct {
	buckets [][]*scheduledEvent
	mask    int64   // len(buckets)-1
	width   float64 // seconds per bucket
	n       int     // entries, live + canceled
	vb      int64   // scan floor: virtual bucket of the last popped event
	curT    float64 // last popped event time; recomputes vb on resize

	// peek caches the located minimum's bucket so the pop following a
	// horizon check re-locates nothing.
	minCached bool
	minBucket int64
}

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([][]*scheduledEvent, cqMinBuckets),
		mask:    cqMinBuckets - 1,
		width:   1,
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

// insertSorted places ev into bucket slice b keeping eventBefore order.
// Scanning from the tail makes the common cases — later times, and
// same-instant FIFO sequences — a plain append.
func insertSorted(b []*scheduledEvent, ev *scheduledEvent) []*scheduledEvent {
	b = append(b, ev)
	i := len(b) - 1
	for i > 0 && eventBefore(ev, b[i-1]) {
		b[i] = b[i-1]
		i--
	}
	b[i] = ev
	return b
}

func (q *calendarQueue) push(ev *scheduledEvent) {
	bi := q.vbucket(ev.t) & q.mask
	q.buckets[bi] = insertSorted(q.buckets[bi], ev)
	q.n++
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
	q.n--
	q.curT = ev.t
	q.vb = q.vbucket(ev.t)
	// Shrink at a quarter, not half, of the bucket count: growth
	// doubles at n > 2·len, so a half-threshold shrink sits one pop
	// away from the population that just grew the ring — an oscillating
	// population would resize on nearly every push/pop pair. The
	// quarter threshold requires a 4x swing between resizes.
	if q.n < len(q.buckets)/4 && len(q.buckets) > cqMinBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

func (q *calendarQueue) removeCanceled(release func(*scheduledEvent)) {
	for bi, b := range q.buckets {
		live := b[:0]
		for _, ev := range b {
			if ev.canceled {
				release(ev)
				q.n--
			} else {
				live = append(live, ev)
			}
		}
		for i := len(live); i < len(b); i++ {
			b[i] = nil
		}
		q.buckets[bi] = live
	}
	q.minCached = false
	nb := len(q.buckets)
	for nb > cqMinBuckets && q.n < nb/4 {
		nb /= 2
	}
	if nb != len(q.buckets) {
		q.resize(nb)
	}
}

// resize rebuilds the ring with nb buckets and a width matched to the
// live events' spacing: roughly twice the mean gap, so a bucket holds a
// couple of events on average. Rebuilding sorts all entries once by
// eventBefore (a strict total order — seq is unique — so the unstable
// sort is still deterministic) and refills buckets in that order,
// keeping every bucket sorted with plain appends.
func (q *calendarQueue) resize(nb int) {
	all := make([]*scheduledEvent, 0, q.n)
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, b := range q.buckets {
		for _, ev := range b {
			all = append(all, ev)
			if ev.t < minT {
				minT = ev.t
			}
			if ev.t > maxT {
				maxT = ev.t
			}
		}
	}
	if len(all) > 1 && maxT > minT {
		q.width = (maxT - minT) / float64(len(all)) * 2
		if q.width < cqMinWidth {
			q.width = cqMinWidth
		}
	}
	sort.Slice(all, func(i, j int) bool { return eventBefore(all[i], all[j]) })
	q.buckets = make([][]*scheduledEvent, nb)
	q.mask = int64(nb) - 1
	q.vb = q.vbucket(q.curT)
	q.minCached = false
	for _, ev := range all {
		bi := q.vbucket(ev.t) & q.mask
		q.buckets[bi] = append(q.buckets[bi], ev)
	}
}
