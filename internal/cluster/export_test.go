package cluster

import (
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// Test-only entry points for the external cluster_test package.
var (
	// RunBarrier is the sharded replay's barrier reference (runBarrier).
	RunBarrier = runBarrier
	// RunPipelinedRing is RunPipelined with an explicit per-shard ring
	// capacity, for backpressure and memory-bound tests.
	RunPipelinedRing = runPipelined
	// WaitGoroutines fails a test whose run left goroutines behind.
	WaitGoroutines = waitGoroutines
)

// BoundaryRing is the ring capacity RunPipelined uses.
const BoundaryRing = boundaryRing

// WithBackend returns opts with the engine calendar set to b.
func WithBackend(opts Options, b sim.Backend) Options {
	opts.backend = b
	return opts
}

// The materialized generator: the sort-based oracle Stream and
// ParallelStream are checked against, and the record-slice helpers the
// seed-runner oracles read.

// Generate synthesizes a workload trace: per-site renewal (or supplied)
// arrival streams merged into one time-ordered record list, each request
// carrying a service time drawn from the inference model.
func Generate(spec GenSpec) *WorkloadTrace {
	procs := deriveArrivals(&spec)
	arrRng, svcRng := siteStreams(spec.Seed, spec.Sites)
	var recs []RequestRecord
	for site, p := range procs {
		t := 0.0
		for {
			next, ok := p.Next(t, arrRng[site])
			if !ok || next > spec.Duration {
				break
			}
			t = next
			recs = append(recs, RequestRecord{
				Time:        t,
				Site:        site,
				ServiceTime: spec.Model.SampleServiceTime(svcRng[site]),
			})
		}
	}
	// Stable sort so records tying on (Time, Site) — batch arrivals fire
	// several same-instant requests at one site — keep their per-site
	// generation order. Stream produces the same sequence by a stable
	// k-way merge, so the two paths are bit-identical for every spec.
	sort.SliceStable(recs, func(i, j int) bool { return lessTimeSite(recs[i], recs[j]) })
	return &WorkloadTrace{Records: recs, Sites: spec.Sites}
}

// siteStreams constructs every site's random streams from siteSeeds.
func siteStreams(seed int64, sites int) (arr, svc []*rand.Rand) {
	arrSeed, svcSeed := siteSeeds(seed, sites)
	arr = make([]*rand.Rand, sites)
	svc = make([]*rand.Rand, sites)
	for i := 0; i < sites; i++ {
		arr[i] = rand.New(rand.NewSource(arrSeed[i]))
		svc[i] = rand.New(rand.NewSource(svcSeed[i]))
	}
	return arr, svc
}

// Duration returns the span from first to last request.
func (w *WorkloadTrace) Duration() float64 {
	if len(w.Records) == 0 {
		return 0
	}
	return w.Records[len(w.Records)-1].Time - w.Records[0].Time
}

// TotalRate returns the average aggregate request rate.
func (w *WorkloadTrace) TotalRate() float64 {
	d := w.Duration()
	if d <= 0 {
		return 0
	}
	return float64(len(w.Records)-1) / d
}

// SiteRates returns the average per-site request rates.
func (w *WorkloadTrace) SiteRates() []float64 {
	rates := make([]float64, w.Sites)
	d := w.Duration()
	if d <= 0 {
		return rates
	}
	for _, r := range w.Records {
		rates[r.Site]++
	}
	for i := range rates {
		rates[i] /= d
	}
	return rates
}

// MeanServiceTime returns the average service demand across the trace.
func (w *WorkloadTrace) MeanServiceTime() float64 {
	if len(w.Records) == 0 {
		return 0
	}
	var sum float64
	for _, r := range w.Records {
		sum += r.ServiceTime
	}
	return sum / float64(len(w.Records))
}

// FromRecords builds a trace directly from records (e.g. decoded from a
// CSV trace file). Records are stably sorted by (Time, Site) — the same
// ordering invariant Generate and Stream maintain, so same-instant
// records at one site keep their given order.
func FromRecords(recs []RequestRecord, sites int) *WorkloadTrace {
	sorted := append([]RequestRecord(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return lessTimeSite(sorted[i], sorted[j]) })
	return &WorkloadTrace{Records: sorted, Sites: sites}
}
