package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/app"
	"repro/internal/dist"
	"repro/internal/merge"
	"repro/internal/workload"
)

// SourceFactory returns a fresh Source over the same record sequence on
// every call, so paired and swept runs each take an independent
// iterator. The trace decoders build them over recorded files.
type SourceFactory func() Source

// siteGen is one site's lazy generator state: its arrival process, its
// two private random streams, and the next pending record (whose Time
// is also the time the process advances from).
type siteGen struct {
	proc   workload.ArrivalProcess
	arrRng *rand.Rand
	svcRng *rand.Rand
	rec    RequestRecord
}

// streamSource merges per-site generator streams into one time-ordered
// record sequence without materializing it: memory is O(hi-lo)
// regardless of how many records the spec describes.
type streamSource struct {
	model    app.InferenceModel
	duration float64
	lo       int       // global index of sites[0]
	sites    []siteGen // sites [lo, hi), indexed by site-lo
	// heap keys each live site's pending record by (Time, site-lo),
	// which orders as (Time, Site): the lessTimeSite order.
	heap merge.Heap
}

// Stream returns a Source that generates the spec's records on the fly:
// each site's renewal (or supplied) arrival process draws from its own
// random streams, every accepted arrival draws a service time from the
// inference model, and the per-site streams merge in stable
// (Time, Site) order — in constant memory per site instead of memory
// proportional to the request count. A spec carrying explicit Arrivals
// is consumed by one Stream call: re-derive fresh processes for every
// Stream over the same records.
func Stream(spec GenSpec) Source {
	return streamRange(spec, 0, spec.Sites)
}

// streamRange builds the streaming source restricted to sites [lo, hi):
// every site's streams are derived exactly as the full Stream derives
// them (all sites seeded in site order, then the range selected), so a
// site emits the identical record sequence no matter which range it is
// generated in. Records carry global site indices. This is the
// generator leg of sharded replay: disjoint ranges partition the full
// record sequence.
func streamRange(spec GenSpec, lo, hi int) Source {
	// Validation, process derivation and per-site stream seeding are
	// shared with every range, so partitions cannot drift. Seeds are
	// derived for all sites; generator state is held just for [lo, hi).
	procs := deriveArrivals(&spec)
	arrSeed, svcSeed := siteSeeds(spec.Seed, spec.Sites)
	if lo < 0 || hi > spec.Sites || lo > hi {
		panic(fmt.Sprintf("cluster: stream range [%d,%d) outside %d sites", lo, hi, spec.Sites))
	}
	s := &streamSource{
		model:    spec.Model,
		duration: spec.Duration,
		lo:       lo,
		sites:    make([]siteGen, hi-lo),
	}
	s.heap.Grow(hi - lo)
	for i := range s.sites {
		g := &s.sites[i]
		g.proc = procs[lo+i]
		g.arrRng = dist.NewRand(arrSeed[lo+i])
		g.svcRng = dist.NewRand(svcSeed[lo+i])
		if s.advance(i) {
			s.heap.Push(i, g.rec.Time)
		}
	}
	return s
}

// advance pulls local site i's next record, returning false when the
// site's process is exhausted or past the spec duration. The draw order
// — arrival first, service time only for accepted arrivals — is part of
// the reproducibility contract.
func (s *streamSource) advance(i int) bool {
	g := &s.sites[i]
	next, ok := g.proc.Next(g.rec.Time, g.arrRng)
	if !ok || next > s.duration {
		return false
	}
	g.rec = RequestRecord{
		Time:        next,
		Site:        s.lo + i,
		ServiceTime: s.model.SampleServiceTime(g.svcRng),
	}
	return true
}

// Next implements Source: pop the minimum (Time, Site) record, then
// re-advance that site. Ties within a site (batch arrivals) surface in
// generation order because each site holds exactly one pending record.
func (s *streamSource) Next() (RequestRecord, bool) {
	if s.heap.Len() == 0 {
		return RequestRecord{}, false
	}
	i, _ := s.heap.Min()
	g := &s.sites[i]
	rec := g.rec
	if s.advance(i) {
		s.heap.FixMin(g.rec.Time)
	} else {
		s.heap.PopMin()
	}
	return rec, true
}
