package cluster

// Source streams request records in nondecreasing Time order. The
// deployment runners pull from a Source lazily — exactly one pending
// "generate next arrival" event sits in the engine at any time —
// so replay memory is bounded by the number of in-flight requests, not
// by trace length. Generator sources (Stream, ParallelStream) and the
// trace decoders produce records on the fly, so arbitrarily long
// workloads replay in constant space.
type Source interface {
	// Next returns the next record, or ok=false when the source is
	// exhausted. Records must be yielded in nondecreasing Time order;
	// the runners fail with an error on a time regression. A source
	// that can fail mid-stream should also implement FallibleSource.
	Next() (RequestRecord, bool)
}

// FallibleSource is a Source that can end on a failure rather than a
// clean exhaustion — trace-file decoders, for example. Consumers that
// drain a Source to the end (Run does, and so must any exporter) probe
// for this interface afterwards and treat a non-nil Err as the
// replay's error, never as a short workload.
type FallibleSource interface {
	Source
	// Err returns the error that ended the stream, or nil after a
	// clean exhaustion.
	Err() error
}

// sliceSource iterates a materialized record slice.
type sliceSource struct {
	recs []RequestRecord
	i    int
}

func (s *sliceSource) Next() (RequestRecord, bool) {
	if s.i >= len(s.recs) {
		return RequestRecord{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// Source returns a fresh iterator over the trace. Each call starts at
// the beginning, so concurrent runs each take their own.
func (w *WorkloadTrace) Source() Source { return &sliceSource{recs: w.Records} }
