package main

import (
	"sync"
	"time"

	"repro/internal/cluster"
)

const (
	// chunkRecs is the chunk the chunk_ms metrics time: host ms per
	// this many consecutive records pulled from one source.
	chunkRecs = 10_000
	// sampleEvery is the traced run's sampling period: one pull in this
	// many is timed, and the pull after it times the gap since.
	sampleEvery = 16
)

// tap wraps a Source the engine pulls from. It counts records (and
// those generated before the warmup horizon, for the conservation
// check), times every chunkRecs-record chunk when chunked, and in a
// traced run samples the self time of Next and the gap between pulls.
// A tap is used by one goroutine at a time, like the Source it wraps.
type tap struct {
	src     cluster.Source
	warmup  float64
	chunked bool
	sampled bool

	n, warm   uint64
	nextChunk uint64
	start     time.Time
	chunks    []float64

	lastEnd       time.Time
	selfNs, gapNs int64
	selfN, gapN   int64
}

// Next implements cluster.Source.
func (t *tap) Next() (cluster.RequestRecord, bool) {
	if t.chunked && t.n == t.nextChunk {
		now := time.Now()
		if t.n > 0 {
			t.chunks = append(t.chunks, float64(now.Sub(t.start))/1e6)
		}
		t.start = now
		t.nextChunk += chunkRecs
	}
	var rec cluster.RequestRecord
	var ok bool
	if t.sampled && t.n%sampleEvery <= 1 {
		rec, ok = t.sampledNext()
	} else {
		rec, ok = t.src.Next()
	}
	if ok {
		t.n++
		if rec.Time < t.warmup {
			t.warm++
		}
	}
	return rec, ok
}

// sampledNext times the pull at n%sampleEvery == 0, and at the pull
// after it, the gap since that timed pull returned.
func (t *tap) sampledNext() (cluster.RequestRecord, bool) {
	t0 := time.Now()
	if t.n%sampleEvery == 1 {
		if !t.lastEnd.IsZero() {
			t.gapNs += int64(t0.Sub(t.lastEnd))
			t.gapN++
		}
		return t.src.Next()
	}
	rec, ok := t.src.Next()
	t1 := time.Now()
	t.selfNs += int64(t1.Sub(t0))
	t.selfN++
	t.lastEnd = t1
	return rec, ok
}

// Err implements cluster.FallibleSource, so a decode error in the
// wrapped source still fails the replay.
func (t *tap) Err() error {
	if fs, ok := t.src.(cluster.FallibleSource); ok {
		return fs.Err()
	}
	return nil
}

// tapSet creates the taps of one pass. Pull taps wrap the sources the
// engine consumes; scan taps wrap decoders whose records a shard
// filter may discard. Sharded replays open sources from several
// goroutines, hence the lock.
type tapSet struct {
	warmup  float64
	sampled bool

	mu    sync.Mutex
	pulls []*tap
	scans []*tap
}

func newTapSet(warmup float64, sampled bool) *tapSet {
	return &tapSet{warmup: warmup, sampled: sampled}
}

// pull wraps a source the engine replays, timing its chunks.
func (s *tapSet) pull(src cluster.Source) *tap {
	t := &tap{src: src, warmup: s.warmup, chunked: true, sampled: s.sampled}
	s.mu.Lock()
	s.pulls = append(s.pulls, t)
	s.mu.Unlock()
	return t
}

// scan wraps a decoder feeding a shard filter.
func (s *tapSet) scan(src cluster.Source) *tap {
	t := &tap{src: src, sampled: s.sampled}
	s.mu.Lock()
	s.scans = append(s.scans, t)
	s.mu.Unlock()
	return t
}

// chunks returns every complete chunk's host ms across the pull taps.
func (s *tapSet) chunks() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, t := range s.pulls {
		out = append(out, t.chunks...)
	}
	return out
}

// pulled sums the records and warmup-horizon records of the pull taps.
func (s *tapSet) pulled() (n, warm uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.pulls {
		n += t.n
		warm += t.warm
	}
	return n, warm
}

// scanned sums the records the scan taps decoded.
func (s *tapSet) scanned() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, t := range s.scans {
		n += t.n
	}
	return n
}

// shardTaps adapts a ShardedSource so every shard's source is a pull
// tap: chunk times then cover the records each shard engine consumes.
type shardTaps struct {
	inner cluster.ShardedSource
	taps  *tapSet
}

func (s shardTaps) Sites() int { return s.inner.Sites() }

func (s shardTaps) Shard(lo, hi int) cluster.Source { return s.taps.pull(s.inner.Shard(lo, hi)) }

// sampleSums accumulates sampled self and gap times.
type sampleSums struct {
	selfNs, gapNs int64
	selfN, gapN   int64
}

func (a *sampleSums) add(t *tap) {
	a.selfNs += t.selfNs
	a.selfN += t.selfN
	a.gapNs += t.gapNs
	a.gapN += t.gapN
}

// selfMean and gapMean return mean ns per sampled pull, less the cost
// of the clock reads that bracket each sample.
func (a *sampleSums) selfMean(clock float64) float64 { return meanLess(a.selfNs, a.selfN, clock) }
func (a *sampleSums) gapMean(clock float64) float64  { return meanLess(a.gapNs, a.gapN, clock) }

func meanLess(sum, n int64, clock float64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum)/float64(n) - clock
}

// tapTotals accumulates a run's sampled pull times by tap kind.
type tapTotals struct {
	pulls, scans sampleSums
}

func (a *tapTotals) add(s *tapSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.pulls {
		a.pulls.add(t)
	}
	for _, t := range s.scans {
		a.scans.add(t)
	}
}

// clockCost returns the median host ns of one time.Now pair, the
// overhead each sampled interval carries.
func clockCost() float64 {
	const n = 2001
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		t1 := time.Now()
		d[i] = float64(t1.Sub(t0))
	}
	return median(d)
}

// sliceSource replays materialized records, so an isolated layer call
// times the layer and not the generator.
type sliceSource struct {
	recs []cluster.RequestRecord
	i    int
}

func (s *sliceSource) Next() (cluster.RequestRecord, bool) {
	if s.i >= len(s.recs) {
		return cluster.RequestRecord{}, false
	}
	s.i++
	return s.recs[s.i-1], true
}

// drain pulls up to max records from src into a slice.
func drain(src cluster.Source, max int) []cluster.RequestRecord {
	var out []cluster.RequestRecord
	for len(out) < max {
		rec, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out
}
