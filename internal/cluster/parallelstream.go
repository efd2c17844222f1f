package cluster

import "repro/internal/merge"

// genBatch is the unit parallel generation moves records in: each worker
// pushes batches of this size into its ring, and the consumer drains the
// merge the same number at a time. Large enough to amortize ring locking
// across the NHPP/renewal draw cost, small enough that a worker's
// watermark (its next pending record) advances promptly.
const genBatch = 512

// genRing bounds each worker's ring in records. Backpressure from a slow
// consumer therefore caps resident generated-but-unmerged records at
// workers × genRing, independent of how many records the spec describes —
// the same bounded-memory shape as the pipelined replay's boundary rings.
const genRing = 4096

// ParallelStream generates spec's records on `workers` goroutines and
// merges their substreams into one time-ordered sequence that is
// bit-identical to serial Stream(spec): same per-site seed derivation
// (siteSeeds hands every site its streams in site order regardless of
// which worker generates it), same (Time, Site) merge order, same
// generation-order ties within a site. Sites are split into contiguous
// balanced ranges, one per worker; each worker runs the ordinary
// streamRange generator over its range and publishes through a bounded
// watermarked ring (merge.Group), so generation overlaps and scales with
// cores the way phase-1 replay does.
//
// It is the one place a worker count becomes a generator: the count is
// clamped to spec.Sites, and any count <= 1 returns the serial Stream
// with no goroutines at all. edgesim's single-engine topology replay
// passes one worker per CPU (GOMAXPROCS). A spec carrying explicit
// Arrivals follows the sharded-source contract: one distinct process
// instance per site, because concurrent workers advance their own
// sites' processes.
//
// The returned source is single-consumer. A consumer that abandons the
// stream early should call Stop (via the ParallelSource interface) to
// release the workers; otherwise they park on full rings until process
// exit.
func ParallelStream(spec GenSpec, workers int) Source {
	// Validate (and default the model) on the caller's goroutine so a
	// bad spec panics here, not inside a worker.
	probe := spec
	deriveArrivals(&probe)
	workers = min(workers, spec.Sites)
	if workers <= 1 {
		return Stream(spec)
	}

	g := merge.NewGroup[RequestRecord](workers, genRing, lessTimeSite,
		func(r RequestRecord) float64 { return r.Time })

	// Contiguous balanced site ranges, one worker each — the same
	// partition newShardRun deals replay shards.
	lo := 0
	for w := 0; w < workers; w++ {
		width := spec.Sites / workers
		if w < spec.Sites%workers {
			width++
		}
		go genWorker(g, w, spec, lo, lo+width)
		lo += width
	}
	return &parallelSource{g: g}
}

// genWorker generates sites [lo, hi) through the ordinary serial
// streamRange — the identical per-site draw order Stream uses — and
// publishes its sorted substream through ring w. The protocol mirrors
// the pipelined replay's shard publisher: push the full batch first,
// then advance the watermark to the next pending record's time (every
// later push carries Time >= it, because streamRange emits nondecreasing
// times), so the consumer can prove buffered records final without
// waiting for the ring to fill.
func genWorker(g *merge.Group[RequestRecord], w int, spec GenSpec, lo, hi int) {
	src := streamRange(spec, lo, hi)
	batch := make([]RequestRecord, 0, genBatch)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if len(batch) == genBatch {
			if !g.Push(w, batch) {
				return // consumer abandoned the stream
			}
			g.SetWatermark(w, rec.Time)
			batch = batch[:0]
		}
		batch = append(batch, rec)
	}
	g.Push(w, batch)
	g.Close(w)
}

// parallelSource drains the workers' merged output batch by batch.
type parallelSource struct {
	g    *merge.Group[RequestRecord]
	buf  []RequestRecord
	idx  int
	done bool
}

// Next implements Source.
func (s *parallelSource) Next() (RequestRecord, bool) {
	if s.idx >= len(s.buf) {
		if s.done {
			return RequestRecord{}, false
		}
		if s.buf == nil {
			s.buf = make([]RequestRecord, 0, genBatch)
		}
		var ok bool
		s.buf, ok = s.g.NextBatch(s.buf[:0], genBatch)
		s.idx = 0
		if !ok || len(s.buf) == 0 {
			s.done = true
			return RequestRecord{}, false
		}
	}
	rec := s.buf[s.idx]
	s.idx++
	return rec, true
}

// Stop abandons the stream: the generator workers drop their pending
// batches and exit instead of blocking on rings nobody will drain.
// Needed only when a consumer walks away before draining the source;
// Next keeps reporting the stream ended afterwards.
func (s *parallelSource) Stop() {
	s.g.Cancel()
	s.buf = s.buf[:0]
	s.idx = 0
	s.done = true
}

// ParallelSource is the early-abandon control surface a parallel
// generator source exposes: Stop releases its worker goroutines.
// Consumers that may not drain a Source to exhaustion should type-assert
// and call Stop on the way out.
type ParallelSource interface {
	Source
	Stop()
}

// stopSource releases src's generator workers if it is a ParallelSource.
// The engines defer it on every source they consume, so a run that
// fails part-way never leaves workers parked on their rings; on a
// drained source it is a no-op.
func stopSource(src Source) {
	if p, ok := src.(ParallelSource); ok {
		p.Stop()
	}
}
