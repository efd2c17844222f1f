package merge

import (
	"math/rand"
	"sort"
	"testing"
)

// rec is one merged record: its time and the stream it came from.
type rec struct {
	time float64
	src  int
}

// mergeStreams k-way merges monotone streams through h, starting from
// whatever h held before (Reset first).
func mergeStreams(h *Heap, streams [][]float64) []rec {
	h.Reset()
	pos := make([]int, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			h.Push(i, s[0])
		}
	}
	var got []rec
	for h.Len() > 0 {
		i, t := h.Min()
		got = append(got, rec{t, i})
		pos[i]++
		if pos[i] < len(streams[i]) {
			h.FixMin(streams[i][pos[i]])
		} else {
			h.PopMin()
		}
	}
	return got
}

// checkMerged fails unless got is the stable (time, index) sort of
// every stream's records.
func checkMerged(t *testing.T, label string, streams [][]float64, got []rec) {
	t.Helper()
	var want []rec
	for i, s := range streams {
		for _, ts := range s {
			want = append(want, rec{ts, i})
		}
	}
	sort.SliceStable(want, func(a, b int) bool {
		if want[a].time != want[b].time {
			return want[a].time < want[b].time
		}
		return want[a].src < want[b].src
	})
	if len(got) != len(want) {
		t.Fatalf("%s: merged %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d: merged %+v, stable sort %+v", label, i, got[i], want[i])
		}
	}
}

// TestHeapMergeOrder: merging k monotone streams through the heap
// yields the stable (time, index) order a stable sort would produce.
func TestHeapMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const k, per = 9, 200
	streams := make([][]float64, k)
	for i := range streams {
		t0 := 0.0
		for j := 0; j < per; j++ {
			// Coarse quantization forces frequent exact ties across
			// streams, exercising the index tie-break.
			t0 += float64(rng.Intn(4))
			streams[i] = append(streams[i], t0)
		}
	}
	var h Heap
	h.Grow(k)
	checkMerged(t, "merge", streams, mergeStreams(&h, streams))
}

// TestHeapReset: a reset heap reuses capacity and merges correctly.
func TestHeapReset(t *testing.T) {
	keys := []float64{3, 1, 2}
	var h Heap
	for round := 0; round < 2; round++ {
		h.Reset()
		for i, k := range keys {
			h.Push(i, k)
		}
		order := []int{}
		for h.Len() > 0 {
			i, _ := h.Min()
			order = append(order, i)
			h.PopMin()
		}
		if order[0] != 1 || order[1] != 2 || order[2] != 0 {
			t.Fatalf("round %d: pop order %v, want [1 2 0]", round, order)
		}
	}
}

// TestHeapBinRefill replays the Azure decoder's pattern: each bin resets
// the heap, pushes every site with arrivals in the bin, and drains it
// with FixMin/PopMin. Evenly spaced arrivals at a few counts per bin
// collide exactly across sites, so most comparisons fall to the index.
// Every bin's pop sequence must be the (time, index) sort of its
// arrivals.
func TestHeapBinRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Heap
	for bin := 0; bin < 300; bin++ {
		sites := 1 + rng.Intn(40)
		streams := make([][]float64, sites)
		for i := range streams {
			n := rng.Intn(5) // 0 leaves the site out of the bin
			for j := 0; j < n; j++ {
				streams[i] = append(streams[i], float64(bin)+(float64(j)+0.5)/float64(n))
			}
		}
		checkMerged(t, "bin", streams, mergeStreams(&h, streams))
	}
}

// TestHeapRandomOps checks the heap against a linear-scan oracle under
// a random interleaving of Push, FixMin, PopMin and Reset with heavy
// exact-time ties: after every operation Len and Min must agree with
// the minimum (time, index) of the live set.
func TestHeapRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 64
	live := map[int]float64{}
	var h Heap
	for op := 0; op < 200_000; op++ {
		switch r := rng.Intn(100); {
		case r < 1:
			h.Reset()
			clear(live)
		case r < 35 && len(live) < k:
			i := rng.Intn(k)
			for _, ok := live[i]; ok; _, ok = live[i] {
				i = (i + 1) % k
			}
			tm := float64(rng.Intn(8))
			h.Push(i, tm)
			live[i] = tm
		case r < 80 && len(live) > 0:
			i, tm := h.Min()
			tm += float64(rng.Intn(3)) // 0 keeps the same time
			h.FixMin(tm)
			live[i] = tm
		case len(live) > 0:
			i, _ := h.Min()
			h.PopMin()
			delete(live, i)
		}
		if h.Len() != len(live) {
			t.Fatalf("op %d: Len %d, oracle %d", op, h.Len(), len(live))
		}
		if len(live) == 0 {
			continue
		}
		wantI, wantT := -1, 0.0
		for i, tm := range live {
			if wantI < 0 || tm < wantT || (tm == wantT && i < wantI) {
				wantI, wantT = i, tm
			}
		}
		if i, tm := h.Min(); i != wantI || tm != wantT {
			t.Fatalf("op %d: Min (%d, %v), oracle (%d, %v)", op, i, tm, wantI, wantT)
		}
	}
}
