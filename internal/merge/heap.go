// Package merge holds the k-way merge primitives of the streaming
// pipeline. Heap is the keyed min-heap the single-goroutine mergers
// share: the generator source merges per-site arrival streams and the
// Azure decoder merges per-site bin emissions, both in (time, site)
// order, whose tie-break is part of the bit-reproducibility contract.
// Group merges watermarked rings filled by concurrent producers, and Fan
// broadcasts one producer's records to several consumer rings.
package merge

// entry is one heap slot: a stream's index and the time of its pending
// record, held inline so comparisons read contiguous memory.
type entry struct {
	T float64
	I int
}

// less orders entries by time, then by index. Indices are unique within
// a heap, so this is a strict total order and the pop sequence does not
// depend on the heap's internal layout.
func (a entry) less(b entry) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	return a.I < b.I
}

// Heap is a binary min-heap of (time, index) keys, tuned for k-way
// merging: the caller reads Min, emits that stream's record, and either
// moves the stream's key to its next record's time with FixMin or drops
// the exhausted stream with PopMin. No operation allocates once the
// capacity is grown, and each costs O(log n).
type Heap struct {
	s []entry
}

// Grow pre-allocates capacity for n entries, preserving any entries
// already in the heap.
func (h *Heap) Grow(n int) {
	if cap(h.s) < n {
		s := make([]entry, len(h.s), n)
		copy(s, h.s)
		h.s = s
	}
}

// Reset empties the heap, keeping its capacity.
func (h *Heap) Reset() { h.s = h.s[:0] }

// Len returns the number of entries.
func (h *Heap) Len() int { return len(h.s) }

// Min returns the minimum entry's index and time. It panics on an empty
// heap.
func (h *Heap) Min() (i int, t float64) { return h.s[0].I, h.s[0].T }

// Push adds index i with time t. An index must not be in the heap twice.
func (h *Heap) Push(i int, t float64) {
	h.s = append(h.s, entry{})
	x := entry{T: t, I: i}
	j := len(h.s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !x.less(h.s[parent]) {
			break
		}
		h.s[j] = h.s[parent]
		j = parent
	}
	h.s[j] = x
}

// FixMin sets the minimum entry's time to t, which must not be earlier
// (the merge advanced that stream), and restores heap order.
func (h *Heap) FixMin(t float64) {
	h.s[0].T = t
	h.siftDown(h.s[0])
}

// PopMin removes the minimum entry (the merge exhausted that stream).
func (h *Heap) PopMin() {
	last := len(h.s) - 1
	x := h.s[last]
	h.s = h.s[:last]
	if last > 0 {
		h.siftDown(x)
	}
}

// siftDown places x, which replaces the root, by moving the smaller
// child up into the hole until x orders before both children. The
// child choice adds a 0/1 instead of branching: with random keys that
// branch mispredicts about half the time, and it runs on every level.
func (h *Heap) siftDown(x entry) {
	s := h.s
	n := len(s)
	j := 0
	for {
		c := 2*j + 1
		if c+1 < n {
			c += b2i(s[c+1].less(s[c]))
		} else if c >= n {
			break
		}
		if !s[c].less(x) {
			break
		}
		s[j] = s[c]
		j = c
	}
	s[j] = x
}

// b2i returns 1 for true and 0 for false; it compiles to a flag set.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
