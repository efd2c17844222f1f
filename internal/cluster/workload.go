// Package cluster models the paper's two deployment shapes end to end:
// an edge deployment (k geo-distributed sites, m servers each, one queue
// per site) and a cloud deployment (k·m servers behind one load
// balancer), both fed by the *same* request trace so comparisons are
// paired exactly as in the paper's experiments (the cloud "sees the
// cumulative request rate of the edge sites", §4.2).
package cluster

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/dist"
	"repro/internal/workload"
)

// RequestRecord is one client request: when it was issued, which edge
// site is its home, and how much compute it demands.
type RequestRecord struct {
	Time        float64 // generation time at the client, seconds
	Site        int     // home edge site
	ServiceTime float64 // execution time on the reference server, seconds
}

// WorkloadTrace is a time-ordered sequence of requests held in memory,
// as the trace decoders' slurping readers return it. Synthetic
// workloads never materialize one: they stream (see Stream).
type WorkloadTrace struct {
	Records []RequestRecord
	Sites   int
}

// Len returns the number of requests.
func (w *WorkloadTrace) Len() int { return len(w.Records) }

// GenSpec describes a synthetic workload: Stream, ParallelStream and
// GenShards generate its records on the fly, and all three yield the
// same records. How many goroutines generate them is not part of the
// spec: it is ParallelStream's second argument.
type GenSpec struct {
	Sites       int
	Duration    float64 // seconds of workload to generate
	PerSiteRate float64 // arrival rate per site (req/s), used when Arrivals is nil
	ArrivalSCV  float64 // squared CoV of per-site inter-arrivals (default DefaultArrivalSCV)
	Model       app.InferenceModel
	Seed        int64
	// Arrivals optionally supplies one arrival process per site,
	// overriding PerSiteRate/ArrivalSCV (e.g. NHPP trace envelopes).
	Arrivals []workload.ArrivalProcess
}

// DefaultArrivalSCV is the squared CoV of the load generator's
// inter-arrival times. The paper's Gatling generator issues a fixed
// number of requests each second, which is substantially more regular
// than Poisson; together with app.DefaultServiceSCV this calibrates the
// simulator to the paper's measured crossover points (see EXPERIMENTS.md).
const DefaultArrivalSCV = 0.4

// Validate reports the first setting that makes the spec ungeneratable:
// no sites, a duration that is not positive and finite, a missing or
// non-finite per-site rate (when Arrivals is nil), a negative or
// non-finite ArrivalSCV, an Arrivals slice whose length is not Sites,
// or a nil arrival process or one whose Rate is negative, NaN or
// infinite.
// Front ends call it before a run so bad numbers become errors instead
// of a panic inside a generator.
func (spec GenSpec) Validate() error {
	if spec.Sites <= 0 {
		return fmt.Errorf("cluster: GenSpec.Sites=%d invalid", spec.Sites)
	}
	// NaN/Inf checked explicitly: ordered comparisons are false for NaN,
	// so "x <= 0" alone would accept a NaN duration and generate forever.
	if !positiveFinite(spec.Duration) {
		return fmt.Errorf("cluster: GenSpec.Duration must be positive and finite, got %v", spec.Duration)
	}
	if spec.Arrivals != nil {
		if len(spec.Arrivals) != spec.Sites {
			return fmt.Errorf("cluster: %d arrival processes for %d sites", len(spec.Arrivals), spec.Sites)
		}
		for i, p := range spec.Arrivals {
			if p == nil {
				return fmt.Errorf("cluster: site %d has no arrival process", i)
			}
			// An infinite rate yields every arrival at one instant, so the
			// generator never reaches Duration; a NaN one poisons every draw.
			if r := p.Rate(); r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("cluster: site %d arrival process %v has rate %v, want finite and >= 0", i, p, r)
			}
		}
		return nil
	}
	if !positiveFinite(spec.PerSiteRate) {
		return fmt.Errorf("cluster: GenSpec needs a positive finite PerSiteRate or Arrivals, got rate %v", spec.PerSiteRate)
	}
	if scv := spec.ArrivalSCV; scv < 0 || math.IsNaN(scv) || math.IsInf(scv, 0) {
		return fmt.Errorf("cluster: GenSpec.ArrivalSCV must be finite and >= 0, got %v", scv)
	}
	return nil
}

func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// deriveArrivals defaults the spec's model in place and returns the
// per-site arrival processes. Stream and every range-restricted
// generator share it, so their bit-identical guarantee starts here. It
// panics with Validate's error on an invalid spec.
func deriveArrivals(spec *GenSpec) []workload.ArrivalProcess {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.Model.D == nil {
		spec.Model = app.NewInferenceModel()
	}
	procs := spec.Arrivals
	if procs == nil {
		scv := spec.ArrivalSCV
		if scv == 0 {
			scv = DefaultArrivalSCV
		}
		procs = make([]workload.ArrivalProcess, spec.Sites)
		for i := range procs {
			procs[i] = workload.NewRenewal(dist.FitSCV(1/spec.PerSiteRate, scv))
		}
	}
	return procs
}

// siteSeeds derives each site's (arrival, service) stream seeds from
// the spec seed: the master stream hands every site an arrival seed
// then a service seed, in site order. This derivation order is part of
// the reproducibility contract every generator shares. Range-restricted
// consumers derive all seeds (16 bytes per site) and build streams
// (80 bytes each, dist.NewRand) only for the sites they replay.
func siteSeeds(seed int64, sites int) (arrSeed, svcSeed []int64) {
	rng := dist.NewRand(seed)
	arrSeed = make([]int64, sites)
	svcSeed = make([]int64, sites)
	for i := 0; i < sites; i++ {
		arrSeed[i] = rng.Int63()
		svcSeed[i] = rng.Int63()
	}
	return arrSeed, svcSeed
}

// lessTimeSite is the (Time, Site) record ordering every generator
// emits. Stream's merge.Heap orders its (Time, site index) keys the
// same way, so the heap and lessTimeSite define one order;
// ParallelStream's merge.Group still compares whole records with
// lessTimeSite.
func lessTimeSite(a, b RequestRecord) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Site < b.Site
}
