package merge

import "sync"

// Group is a set of k bounded producer rings feeding one consumer
// through a watermark-gated k-way merge — the coordination core of the
// sharded replay (cluster.RunPipelined). Each producer pushes records in
// nondecreasing Less order into its own ring (blocking while the ring
// is full, which is the backpressure that bounds memory by ring
// capacity instead of record count) and advances a monotone watermark:
// after SetWatermark(i, w), every later Push on ring i carries a record
// with Time >= w. The consumer pops the globally least record as soon
// as it is provably final.
//
// Safety rule: the least buffered record r may be emitted iff every
// OTHER ring that is still open and currently empty has watermark
// strictly greater than Time(r). Non-empty rings need no watermark
// check — their buffered head already bounds their future pushes — and
// the inequality must be strict because Less may break Time ties on
// fields a lagging producer could still undercut.
type Group[T any] struct {
	mu       sync.Mutex
	change   *sync.Cond // any state change: pushes, pops, watermarks, closes
	less     func(a, b T) bool
	time     func(T) float64
	rings    []wring[T]
	open     int
	occ      int  // buffered records across all rings
	peak     int  // high-water mark of occ
	canceled bool // consumer abandoned: pushes drop, batches end
}

// wring is one producer's bounded circular buffer.
type wring[T any] struct {
	buf    []T
	head   int // index of the oldest buffered record
	n      int
	wm     float64
	closed bool
}

// NewGroup builds a group of k rings of the given capacity. less is the
// merge order (a strict total order); time maps a record to the clock
// its producers' watermarks speak.
func NewGroup[T any](k, capacity int, less func(a, b T) bool, time func(T) float64) *Group[T] {
	if k <= 0 || capacity <= 0 {
		panic("merge: NewGroup needs k > 0 and capacity > 0")
	}
	g := &Group[T]{less: less, time: time, rings: make([]wring[T], k), open: k}
	g.change = sync.NewCond(&g.mu)
	for i := range g.rings {
		g.rings[i].buf = make([]T, capacity)
	}
	return g
}

// Push appends recs — which must continue ring i's nondecreasing Less
// order and respect its watermark — blocking whenever the ring is full
// until the consumer frees space. It reports whether the group is still
// live: after Cancel it drops the records and returns false, so a
// producer loop can stop generating instead of blocking forever on a
// ring nobody will drain.
func (g *Group[T]) Push(i int, recs []T) bool {
	if len(recs) == 0 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return !g.canceled
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	r := &g.rings[i]
	for len(recs) > 0 {
		for r.n == len(r.buf) && !g.canceled {
			g.change.Wait()
		}
		if g.canceled {
			return false
		}
		take := len(r.buf) - r.n
		if take > len(recs) {
			take = len(recs)
		}
		for _, v := range recs[:take] {
			r.buf[(r.head+r.n)%len(r.buf)] = v
			r.n++
		}
		recs = recs[take:]
		g.occ += take
		if g.occ > g.peak {
			g.peak = g.occ
		}
		g.change.Broadcast()
	}
	return true
}

// Cancel abandons the group: every blocked or future Push drops its
// records and returns false, and NextBatch reports the stream ended.
// It lets a consumer walk away early (an error mid-replay, a bounded
// probe) without stranding producers on full rings. Idempotent.
func (g *Group[T]) Cancel() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.canceled {
		g.canceled = true
		g.change.Broadcast()
	}
}

// SetWatermark promises that every later Push on ring i carries records
// with Time >= w. Watermarks are monotone; regressions are ignored.
func (g *Group[T]) SetWatermark(i int, w float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w > g.rings[i].wm {
		g.rings[i].wm = w
		g.change.Broadcast()
	}
}

// Close marks ring i done: no further pushes, and the safety rule stops
// waiting on it once its buffer drains.
func (g *Group[T]) Close(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.rings[i].closed {
		g.rings[i].closed = true
		g.open--
		g.change.Broadcast()
	}
}

// NextBatch appends up to max merged records to dst and returns it. It
// blocks until at least one record is emittable, and returns ok=false
// only when every ring is closed and drained. Single consumer only.
func (g *Group[T]) NextBatch(dst []T, max int) ([]T, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.canceled {
			return dst, false
		}
		popped := 0
		for popped < max {
			best := -1
			for j := range g.rings {
				if g.rings[j].n == 0 {
					continue
				}
				if best < 0 || g.less(g.rings[j].buf[g.rings[j].head], g.rings[best].buf[g.rings[best].head]) {
					best = j
				}
			}
			if best < 0 {
				break
			}
			r := g.rings[best].buf[g.rings[best].head]
			safe := true
			for j := range g.rings {
				w := &g.rings[j]
				if j == best || w.n > 0 || w.closed {
					continue
				}
				if g.time(r) >= w.wm {
					safe = false
					break
				}
			}
			if !safe {
				break
			}
			b := &g.rings[best]
			b.head = (b.head + 1) % len(b.buf)
			b.n--
			g.occ--
			dst = append(dst, r)
			popped++
		}
		if popped > 0 {
			g.change.Broadcast() // wake producers blocked on full rings
			return dst, true
		}
		if g.open == 0 && g.occ == 0 {
			return dst, false
		}
		g.change.Wait()
	}
}

// Next pops a single merged record (a convenience over NextBatch for
// tests and low-rate consumers).
func (g *Group[T]) Next() (T, bool) {
	var buf [1]T
	out, ok := g.NextBatch(buf[:0], 1)
	if !ok || len(out) == 0 {
		var zero T
		return zero, ok && len(out) > 0
	}
	return out[0], true
}

// Peak reports the high-water mark of records buffered across all rings
// — the quantity the pipelined replay's memory bound is stated in. Call
// it after the consumer has drained the group (or accept a racy read).
func (g *Group[T]) Peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}
