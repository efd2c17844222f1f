package cluster

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"repro/internal/merge"
)

// Broadcast replay: one generation/decode pass fans out to N variant
// engines. Every variant comparison in this repo replays the identical
// record sequence through different deployments or options; the
// per-row discipline (SourceFactory: re-derive a fresh source per run)
// pays the generation or decode cost once per variant. RunBroadcast
// pays it once per distinct trace instead:
//
//	            ┌─▶ ring 0 ──▶ Source ──▶ engine (variant 0)
//	src ──pump──┼─▶ ring 1 ──▶ Source ──▶ engine (variant 1)
//	            └─▶ ring k ──▶ Source ──▶ engine (variant k)
//
// One producer goroutine pulls src and publishes batches into a
// merge.Fan — bounded per-variant rings with backpressure, so the
// slowest engine gates the producer and resident memory stays O(ring ×
// variants) however long the trace is. Each ring presents as an
// ordinary Source (records are value types; consumers share nothing
// mutable), so every variant replays the byte-identical sequence a
// fresh per-row source would have yielded — the broadcast equivalence
// suite asserts whole TopologyResults are bit-identical to per-row
// re-derivation across generator/CSV/Azure sources and summary modes.
const (
	// defaultBroadcastRing bounds each subscriber's ring when the caller
	// passes ring <= 0: deep enough to decouple the engines' pop
	// cadences, small enough that k rings stay cache-resident.
	defaultBroadcastRing = 4096
	// broadcastBatch amortizes the fan's lock over batches on both the
	// publish and the subscribe side.
	broadcastBatch = 256
)

// Variant is one subscriber of a broadcast replay: a deployment and
// its run options, evaluated on the shared record stream.
type Variant struct {
	Label    string
	Topology Topology
	Opts     Options
}

// broadcastSub adapts one fan ring into a Source (and FallibleSource:
// a producer-side decode error surfaces through Err after the drain,
// exactly as it would on a per-row source).
type broadcastSub struct {
	fan *merge.Fan[RequestRecord]
	i   int
	buf []RequestRecord
	bi  int
	err func() error
}

func (s *broadcastSub) Next() (RequestRecord, bool) {
	if s.bi >= len(s.buf) {
		var ok bool
		s.buf, ok = s.fan.NextBatch(s.i, s.buf[:0], broadcastBatch)
		s.bi = 0
		if !ok || len(s.buf) == 0 {
			return RequestRecord{}, false
		}
	}
	rec := s.buf[s.bi]
	s.bi++
	return rec, true
}

func (s *broadcastSub) Err() error { return s.err() }

// RunBroadcast replays src through every variant concurrently, pulling
// the source exactly once. Results are positional (results[i] is
// variants[i]); the first variant error fails the whole call. ring
// bounds each subscriber's buffer (<= 0 selects the default). The
// source's records must be nondecreasing in time, as for Run; if src
// is a FallibleSource its error fails every variant, matching the
// per-row behavior where each run's own decoder would fail.
//
// All variants replay concurrently — an early-finishing or failing
// variant detaches from the fan so it can never stall the rest — and
// each variant's engine, seeds and options behave exactly as in
// Run(srcFactory(), v.Topology, v.Opts).
func RunBroadcast(src Source, variants []Variant, ring int) ([]*TopologyResult, error) {
	if len(variants) == 0 {
		stopSource(src)
		return nil, fmt.Errorf("cluster: RunBroadcast needs at least one variant")
	}
	if ring <= 0 {
		ring = defaultBroadcastRing
	}
	fan := merge.NewFan[RequestRecord](len(variants), ring)

	// Producer: one pass over src, batched into the fan. The error (if
	// any) is stored before CloseProducer, so a subscriber that has
	// drained its ring always observes it.
	var (
		srcMu  sync.Mutex
		srcErr error
	)
	go pprof.Do(context.Background(), pprof.Labels("phase", "generate"), func(context.Context) {
		defer stopSource(src)
		batch := make([]RequestRecord, 0, broadcastBatch)
		for {
			rec, ok := src.Next()
			if !ok {
				break
			}
			batch = append(batch, rec)
			if len(batch) == broadcastBatch {
				if !fan.Publish(batch) {
					break // every subscriber canceled; stop generating
				}
				batch = batch[:0]
			}
		}
		fan.Publish(batch)
		if fs, ok := src.(FallibleSource); ok {
			if err := fs.Err(); err != nil {
				srcMu.Lock()
				srcErr = err
				srcMu.Unlock()
			}
		}
		fan.CloseProducer()
	})

	producerErr := func() error {
		srcMu.Lock()
		defer srcMu.Unlock()
		return srcErr
	}
	results := make([]*TopologyResult, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i := range variants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer fan.Cancel(i)
			sub := &broadcastSub{fan: fan, i: i, err: producerErr}
			results[i], errs[i] = Run(sub, variants[i].Topology, variants[i].Opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			label := variants[i].Label
			if label == "" {
				label = fmt.Sprintf("#%d", i)
			}
			return nil, fmt.Errorf("cluster: broadcast variant %s: %w", label, err)
		}
	}
	return results, nil
}
