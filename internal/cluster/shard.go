package cluster

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Sharded topology replay splits a run into two phases along the
// topology graph's natural merge boundary:
//
//   - Phase 1 (parallel): the home-routed tiers. Every dynamic there is
//     site-local — requests queue at their home station, spill decisions
//     read only that station's load, and all randomness draws from
//     per-site streams — so the sites partition into contiguous ranges,
//     each replayed on its own sim.Engine in its own goroutine.
//   - Phase 2 (serial): the shared tiers (dispatchers, central queues,
//     autoscaled pools), which couple all sites. Every request crossing
//     from phase 1 — a spill out of a saturated home tier, or a class
//     pinned straight to a shared tier — is captured as a boundary
//     record; the per-shard streams are merged into one canonical
//     (time, site, per-site order) sequence and replayed on the shared
//     tiers' engine(s).
//
// Because phase-1 dynamics are site-local and the boundary sequence is
// canonical, the result is bit-identical for every shard count: the
// shard-determinism suite asserts -shards N == -shards 1 across the
// presets, sources, seeds and summary modes. Both engines draw from the
// one stream layout of streams.go and replay the same events through
// the same tier builder, router, sink and harvest, so the sharded
// result also agrees with Run's on every counter, duration, utilization
// and quantile, with means equal up to summation order:
// TestSerialMatchesSharded is that oracle.
//
// RunPipelined (pipeline.go) runs the two phases concurrently: boundary
// records stream through watermarked bounded rings, so phase 2 starts
// immediately and boundary memory is O(ring capacity).

// Shardable reports whether the topology can be replayed by the sharded
// backend (RunPipelined), or an error naming the first coupling that prevents it. The
// disqualifiers are exactly the features that couple home sites:
// geographic jockeying and autoscalers on home tiers, Bernoulli class
// fractions (one global stream), sampled detours on non-entry home
// spill edges, and spill edges that re-enter the home phase from a
// shared tier.
func Shardable(topo Topology) error {
	topo = topo.normalized()
	if err := topo.Validate(); err != nil {
		return err
	}
	_, err := planShards(topo)
	return err
}

// ResolveShards turns a shard setting into an engine count for topo: 0
// keeps the single engine (Run); a positive count is that many sharded
// engines (RunPipelined) and fails with Shardable's reason when the
// graph cannot shard; a negative setting means auto — the CPUs divided
// among pool concurrent replays (at least one each) when the graph
// shards, else 0. The count only affects wall-clock: RunPipelined is
// bit-identical at every shard count.
func ResolveShards(setting int, topo Topology, pool int) (int, error) {
	switch {
	case setting == 0:
		return 0, nil
	case setting > 0:
		if err := Shardable(topo); err != nil {
			return 0, err
		}
		return setting, nil
	case Shardable(topo) != nil:
		return 0, nil
	default:
		return max(runtime.GOMAXPROCS(0)/max(pool, 1), 1), nil
	}
}

// shardPlan classifies tiers into the parallel home phase and the
// serial shared phase.
type shardPlan struct {
	homeSlot []int // tier index -> slot in home order, or -1
	home     []int // home-routed tier indices, declaration order
	shared   []int // shared tier indices, declaration order
	sites    int   // home site count (0 when no home tiers)
}

func planShards(topo Topology) (shardPlan, error) {
	plan := shardPlan{homeSlot: make([]int, len(topo.Tiers))}
	for ti, t := range topo.Tiers {
		if !t.homeRouted() {
			plan.homeSlot[ti] = -1
			plan.shared = append(plan.shared, ti)
			continue
		}
		if t.JockeyThreshold > 0 {
			return plan, fmt.Errorf("cluster: tier %q jockeys between sites; not shardable", t.Name)
		}
		if t.Scaler != nil {
			return plan, fmt.Errorf("cluster: home tier %q has an autoscaler (one controller across all sites); not shardable", t.Name)
		}
		plan.homeSlot[ti] = len(plan.home)
		plan.home = append(plan.home, ti)
		plan.sites = t.Sites
	}
	for _, sp := range topo.Spills {
		from, to := topo.tierIndex(sp.From), topo.tierIndex(sp.To)
		fromHome := plan.homeSlot[from] >= 0
		if !fromHome && plan.homeSlot[to] >= 0 {
			return plan, fmt.Errorf("cluster: spill %s->%s re-enters the home phase from a shared tier; not shardable", sp.From, sp.To)
		}
		if fromHome && sp.DetourPath != nil && from != 0 {
			return plan, fmt.Errorf("cluster: spill %s->%s samples its detour at crossing time from a shared stream; not shardable", sp.From, sp.To)
		}
	}
	for _, c := range topo.Classes {
		if c.Fraction > 0 && c.Fraction < 1 {
			return plan, fmt.Errorf("cluster: class %q draws a global Bernoulli stream; not shardable", c.Name)
		}
	}
	return plan, nil
}

// boundaryRec is one request crossing the merge boundary: everything
// phase 2 needs to replay its life at the shared tiers.
type boundaryRec struct {
	at        float64 // arrival instant at the shared target tier
	site      int     // global home site (merge tie-break)
	seq       uint64  // per-site capture order (final tie-break)
	service   float64 // service demand, already scaled to the target tier
	rtt       float64 // network RTT accumulated so far
	aux       float64 // pre-sampled entry-spill detour (Request.AuxRTT)
	generated float64
	tier      int // target tier index
	class     int // SLO class rank (Request.Class)
}

// boundaryBefore is the canonical merge order: arrival time, then home
// site, then per-site capture order. Sites are disjoint across shards
// and seq is strictly increasing per site, so the order is total and
// independent of the shard partition.
func boundaryBefore(a, b *boundaryRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.site != b.site {
		return a.site < b.site
	}
	return a.seq < b.seq
}

// boundaryPublisher receives one shard's boundary captures during phase
// 1; pipePublisher streams them through a watermarked ring. capture is
// called in shard event order; advance reports the shard clock reaching
// now (from the feeder, once per source record); finish runs once after
// the shard engine drains, including on source error.
type boundaryPublisher interface {
	capture(rec boundaryRec)
	advance(now float64)
	finish()
}

// shardState is one phase-1 shard's working set and harvest. It doubles
// as the shard's queue.Sink: every completion in phase 1 happens at a
// home tier of this shard.
type shardState struct {
	lo, hi int // global site range
	warmup float64
	slot   []int // tier index -> home slot (shared shardPlan.homeSlot)

	tiers   []*tierRuntime // per tier index: home tiers' site ranges, nil for shared tiers
	siteSeq []uint64       // per local site: boundary capture counter

	offered  uint64
	consumed uint64
	served   []uint64 // per home slot, measured
	dropped  []uint64
	spilled  []uint64
	rejected []uint64 // per home slot, admission refusals (warmup included)

	// Per-class counters and digests, nil when the topology declares no
	// classes. classSite keeps one digest per (slot, class, local site)
	// so finishSharded can merge per-class latency in canonical global
	// site order, independent of the shard partition.
	classServed   [][]uint64
	classDropped  [][]uint64
	classRejected [][]uint64
	classSite     [][][]stats.Digest

	tierSite [][]stats.Digest // per home slot, per local site e2e
	perSite  []stats.Digest   // per local site, home-phase e2e

	eng *sim.Engine
	err error
}

// Consume implements queue.Sink.
func (st *shardState) Consume(e *sim.Engine, r *queue.Request) {
	st.consumed++
	if r.Rejected {
		// Already counted at the rejection instant in the admission gate;
		// only the conservation counter above sees it here.
		return
	}
	if r.Departure < st.warmup {
		return
	}
	slot := st.slot[r.Tag]
	if r.Dropped {
		st.dropped[slot]++
		if st.classDropped != nil {
			st.classDropped[slot][r.Class]++
		}
		return
	}
	e2e := r.EndToEnd()
	ls := r.Site - st.lo
	st.perSite[ls].Add(e2e)
	st.tierSite[slot][ls].Add(e2e)
	st.served[slot]++
	if st.classServed != nil {
		st.classServed[slot][r.Class]++
		st.classSite[slot][r.Class][ls].Add(e2e)
	}
}

// runShardPhase1 replays one shard's sites through the home tiers,
// streaming boundary crossings into pub. All randomness draws from the
// sites' network streams, so a site behaves identically no matter which
// shard holds it. A failure — a tier that will not build, a
// record outside the shard's sites, a source that goes back in time or
// fails to decode — stops the shard and lands in st.err; pub.finish
// runs on every path, so the ring always closes and the merger cannot
// stall.
func runShardPhase1(topo Topology, plan shardPlan, st *shardState, src Source, opts Options, pub boundaryPublisher) {
	defer pub.finish()
	eng := sim.NewEngineBackend(opts.Seed, opts.backend)
	st.eng = eng
	pool := &queue.FreeList{}
	width := st.hi - st.lo

	st.warmup = opts.Warmup
	st.slot = plan.homeSlot
	st.served = make([]uint64, len(plan.home))
	st.dropped = make([]uint64, len(plan.home))
	st.spilled = make([]uint64, len(plan.home))
	st.rejected = make([]uint64, len(plan.home))
	if nclass := len(topo.Classes); nclass > 0 {
		st.classServed = make([][]uint64, len(plan.home))
		st.classDropped = make([][]uint64, len(plan.home))
		st.classRejected = make([][]uint64, len(plan.home))
		st.classSite = make([][][]stats.Digest, len(plan.home))
		for slot := range plan.home {
			st.classServed[slot] = make([]uint64, nclass+1)
			st.classDropped[slot] = make([]uint64, nclass+1)
			st.classRejected[slot] = make([]uint64, nclass+1)
			st.classSite[slot] = make([][]stats.Digest, nclass+1)
			for c := range st.classSite[slot] {
				st.classSite[slot][c] = newDigests(opts.Summary, width)
			}
		}
	}
	st.siteSeq = make([]uint64, width)
	st.perSite = newDigests(opts.Summary, width)
	st.tierSite = make([][]stats.Digest, len(plan.home))
	st.tiers = make([]*tierRuntime, len(topo.Tiers))
	for slot, ti := range plan.home {
		// Admission buckets are the shard's local sites: token-bucket
		// state is per-site, so a local-site key observes exactly the
		// sequence the serial policy's global-site bucket would —
		// admission is partition-independent.
		rt, err := buildTier(eng, topo.Tiers[ti], st.lo, st.hi, opts, pool, nil)
		if err != nil {
			st.err = err
			return
		}
		st.tiers[ti] = rt
		st.tierSite[slot] = newDigests(opts.Summary, width)
	}
	// Spill edges out of home tiers. planShards rejected sampled detours
	// on every home edge but the entry tier's, whose detour the router
	// draws at generation time, so no edge here needs a stream.
	attachSpills(topo, st.tiers, nil)

	capture := func(at float64, req *queue.Request, target int) {
		ls := req.Site - st.lo
		pub.capture(boundaryRec{
			at:        at,
			site:      req.Site,
			seq:       st.siteSeq[ls],
			service:   req.ServiceTime,
			rtt:       req.NetworkRTT,
			aux:       req.AuxRTT,
			generated: req.Generated,
			tier:      target,
			class:     req.Class,
		})
		st.siteSeq[ls]++
		pool.Put(req)
	}

	var admitEv sim.PayloadEvent
	admitEv = func(e *sim.Engine, p any) {
		req := p.(*queue.Request)
		ti := int(req.Tag)
		rt := st.tiers[ti]
		if rt == nil {
			// Class-pinned straight into the shared phase; ServiceTime is
			// already scaled to the target tier by prep. The shared tier's
			// admission policy runs in phase 2, where it observes the
			// canonical merged order — exactly what the serial run sees.
			capture(e.Now(), req, ti)
			return
		}
		slot := plan.homeSlot[ti]
		ls := req.Site - st.lo
		stn := rt.stations[ls]
		// Admission before the spill check, mirroring topoExec.admit: a
		// refused request is rejected outright, never spilled.
		if a := rt.adm; a != nil && !a.Admit(e.Now(), ls, stn.QueueLength(), req.Class) {
			st.rejected[slot]++
			if st.classRejected != nil {
				st.classRejected[slot][req.Class]++
			}
			req.Rejected = true
			req.Departure = e.Now()
			st.Consume(e, req)
			pool.Put(req)
			return
		}
		if sp := rt.spill; sp != nil && stn.Load() >= sp.spec.Threshold {
			st.spilled[slot]++
			extra := sp.spec.DetourRTT
			if sp.atGen {
				extra += req.AuxRTT
			}
			req.NetworkRTT += extra
			if toSlow := topo.Tiers[sp.to].SlowdownFactor; toSlow != rt.slow {
				req.ServiceTime = req.ServiceTime / rt.slow * toSlow
			}
			if st.tiers[sp.to] == nil {
				capture(e.Now()+extra/2, req, sp.to)
				return
			}
			req.Tag = uint64(sp.to)
			e.AfterPayload(extra/2, admitEv, req)
			return
		}
		stn.Arrive(req)
	}

	// Site-pinned classes only: planShards rejected Bernoulli fractions,
	// so the router never draws a class stream here.
	route := newRouter(topo, newNetStreams(opts.Seed, st.lo, width), nil)
	f := &feeder{
		src:  src,
		pool: pool,
		sink: st,
		prep: func(rec RequestRecord, req *queue.Request) {
			ls := rec.Site - st.lo
			if uint(ls) >= uint(width) {
				// The engine halts after this event, before the
				// request's arrival can fire.
				st.err = fmt.Errorf("cluster: sharded source yielded site %d outside shard [%d,%d)",
					rec.Site, st.lo, st.hi)
				eng.Stop()
				return
			}
			// The shard clock sits at rec.Time: every boundary capture
			// from here on carries at >= rec.Time, which is what lets the
			// publisher release and watermark.
			pub.advance(rec.Time)
			route.prep(rec, req)
		},
		admit: admitEv,
	}
	f.start(eng)
	eng.Run()
	st.offered = f.count
	if st.err == nil {
		st.err = f.err
	}
	if fs, ok := src.(FallibleSource); ok && st.err == nil {
		if err := fs.Err(); err != nil {
			st.err = fmt.Errorf("cluster: shard [%d,%d) source failed after %d records: %w",
				st.lo, st.hi, f.count, err)
		}
	}
}

// shardRun is one sharded run's shared state: the validated plan, the
// shard site ranges and the result skeleton.
type shardRun struct {
	topo   Topology
	plan   shardPlan
	opts   Options
	sites  int
	shards int
	states []*shardState
	res    *TopologyResult
}

// newShardRun validates the run and splits its sites into the shard
// ranges.
func newShardRun(src ShardedSource, topo Topology, opts Options, shards int) (*shardRun, error) {
	topo, err := prepareRun(topo, opts)
	if err != nil {
		return nil, err
	}
	plan, err := planShards(topo)
	if err != nil {
		return nil, err
	}
	if opts.TimelineBin > 0 {
		return nil, fmt.Errorf("cluster: sharded replay does not support Options.TimelineBin (order-dependent timeline); use Run")
	}
	if opts.Probe != nil {
		return nil, fmt.Errorf("cluster: sharded replay does not support Options.Probe; use Run")
	}
	sites := src.Sites()
	if sites <= 0 {
		return nil, fmt.Errorf("cluster: sharded source reports %d sites", sites)
	}
	if plan.sites > 0 && sites != plan.sites {
		return nil, fmt.Errorf("cluster: source has %d sites, home tiers have %d", sites, plan.sites)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > sites {
		shards = sites
	}

	// Contiguous balanced site ranges, one shard each.
	states := make([]*shardState, shards)
	lo := 0
	for k := 0; k < shards; k++ {
		width := sites / shards
		if k < sites%shards {
			width++
		}
		states[k] = &shardState{lo: lo, hi: lo + width}
		lo += width
	}

	return &shardRun{
		topo:   topo,
		plan:   plan,
		opts:   opts,
		sites:  sites,
		shards: shards,
		states: states,
		// Phase 2 writes its tier counters directly.
		res: newTopologyResult(topo, opts),
	}, nil
}

// p2build is one phase-2 engine's constructed world: the runtimes for
// its subset of the shared tiers, its request pool and its sink (which
// holds the controllers). RunPipelined builds one per independent
// partition of the shared tiers.
type p2build struct {
	eng  *sim.Engine
	x    *topoExec
	pool *queue.FreeList
	sink *sink
}

// buildPhase2 constructs the given shared tiers on a fresh engine,
// following Run's construction scoped to the shared tiers, with the
// same routing streams Run builds for them.
func buildPhase2(r *shardRun, tiers []int) (*p2build, error) {
	topo, opts := r.topo, r.opts
	eng := sim.NewEngineBackend(opts.Seed, opts.backend)
	seeds := newRouteSeeds(topo, opts.Seed)
	pool := &queue.FreeList{}
	x := newTopoExec(eng, pool, r.res)
	for _, ti := range tiers {
		t := topo.Tiers[ti]
		rt, err := buildTier(eng, t, 0, t.Sites, opts, pool,
			func() *rand.Rand { return seeds.tier(ti) })
		if err != nil {
			return nil, err
		}
		x.tiers[ti] = rt
	}
	attachSpills(topo, x.tiers, seeds.spill)
	ctrls, err := startScalers(eng, x.tiers)
	if err != nil {
		return nil, err
	}
	return &p2build{eng: eng, x: x, pool: pool,
		sink: &sink{tiers: r.res.Tiers, warmup: opts.Warmup, ctrls: ctrls}}, nil
}

// finishSharded closes every engine at the global end time, harvests
// the phase-1 and phase-2 counters, merges per-site latency in
// canonical order and assembles the per-tier tables. Every merge runs
// in global site or tier order, independent of the shard partition and
// the phase-2 partitioning, which is what keeps the result
// bit-identical for every shard count.
func finishSharded(r *shardRun, builds []*p2build, perSite []stats.Digest) *TopologyResult {
	topo, plan, opts, res := r.topo, r.plan, r.opts, r.res

	// Tier index -> its runtime: each shared tier's phase-2 runtime, and
	// for each home tier a view of every shard's stations in global
	// site order.
	tiers := make([]*tierRuntime, len(topo.Tiers))
	for _, b := range builds {
		for ti, rt := range b.x.tiers {
			if rt != nil {
				tiers[ti] = rt
			}
		}
	}
	for _, ti := range plan.home {
		view := &tierRuntime{spec: topo.Tiers[ti], home: true}
		for _, st := range r.states {
			view.stations = append(view.stations, st.tiers[ti].stations...)
		}
		tiers[ti] = view
	}

	// Close every engine at the global end time, so time-weighted
	// metrics (busy integrals, arrival rates) cover the same window for
	// every shard count and partition: the max over engines equals the
	// max over per-site last-event times, which no partition changes.
	engines := make([]*sim.Engine, 0, len(r.states)+len(builds))
	for _, st := range r.states {
		engines = append(engines, st.eng)
	}
	for _, b := range builds {
		engines = append(engines, b.eng)
	}
	var globalDur float64
	for _, eng := range engines {
		globalDur = max(globalDur, eng.Now())
	}
	for _, eng := range engines {
		if eng.Now() < globalDur {
			eng.RunUntil(globalDur)
		}
	}
	for _, rt := range tiers {
		for _, s := range rt.stations {
			s.Finish()
		}
	}
	res.Duration = globalDur

	// Harvest phase-1 counters, then the phase-2 sinks' locals.
	for _, st := range r.states {
		res.Offered += st.offered
		res.Consumed += st.consumed
		for slot, ti := range plan.home {
			tier := &res.Tiers[ti]
			tier.Served += st.served[slot]
			tier.Dropped += st.dropped[slot]
			tier.Spilled += st.spilled[slot]
			tier.Rejected += st.rejected[slot]
			res.Completed += st.served[slot]
			res.Dropped += st.dropped[slot]
			if tier.Classes != nil && st.classServed != nil {
				for c := range tier.Classes {
					tier.Classes[c].Served += st.classServed[slot][c]
					tier.Classes[c].Dropped += st.classDropped[slot][c]
					tier.Classes[c].Rejected += st.classRejected[slot][c]
				}
			}
		}
	}
	for _, b := range builds {
		b.sink.fold(res)
	}

	// Combined per-site end-to-end: home-phase completions then
	// shared-phase completions, merged in global site order — a
	// canonical order standing in for Run's completion order.
	combined := newDigests(opts.Summary, r.sites)
	for s := 0; s < r.sites; s++ {
		for _, st := range r.states {
			if s >= st.lo && s < st.hi {
				combined[s].Merge(&st.perSite[s-st.lo])
			}
		}
		combined[s].Merge(&perSite[s])
		res.EndToEnd.Merge(&combined[s])
	}
	for slot, ti := range plan.home {
		tier := &res.Tiers[ti]
		for _, st := range r.states {
			for ls := range st.tierSite[slot] {
				tier.EndToEnd.Merge(&st.tierSite[slot][ls])
			}
		}
		if tier.Classes == nil {
			continue
		}
		// Per-class latency in canonical order: class outer, then shards
		// ascending (= global site order) — independent of the partition.
		for c := range tier.Classes {
			for _, st := range r.states {
				if st.classSite == nil {
					continue
				}
				for ls := range st.classSite[slot][c] {
					tier.Classes[c].EndToEnd.Merge(&st.classSite[slot][c][ls])
				}
			}
		}
	}

	var siteE2E []stats.Digest
	if plan.homeSlot[0] >= 0 && !opts.NoPerSiteLatency {
		siteE2E = combined
	}
	harvest(res, tiers, siteE2E, opts.Pricing)
	return res
}
