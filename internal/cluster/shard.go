package cluster

import (
	"fmt"
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
//     (time, site, per-site order) sequence and replayed on one engine
//     that owns every shared tier.
//
// Every engine — Run's, each shard's and phase 2's — is built by the
// one builder, buildEngine, over the tiers it owns, and routes requests
// through the one admission-and-spill gate, topoExec.admit. A shard's
// gate owns only the home tiers, and its cross hook turns a request
// bound for a shared tier into a boundary record. Run and each shard
// replay their source through engine.replay; phase 2 is fed by
// runPhase2Pump.
//
// Because phase-1 dynamics are site-local, the boundary sequence is
// canonical and a digest's moments and quantiles do not depend on merge
// order, the result is bit-identical for every shard count: the
// shard-determinism suite asserts -shards N == -shards 1 across the
// presets, sources, seeds and summary modes. Both engines draw from the
// one stream layout of streams.go and replay the same events through
// the same tier builder, router, gate, sink and harvest, so the sharded
// result also equals Run's on every counter, duration, utilization,
// mean and quantile: TestSerialMatchesSharded is that oracle.
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
// graph cannot shard; a negative setting means auto — one engine per
// CPU when the graph shards, else 0. The count only affects wall-clock:
// RunPipelined is bit-identical at every shard count.
func ResolveShards(setting int, topo Topology) (int, error) {
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
		return runtime.GOMAXPROCS(0), nil
	}
}

// shardPlan classifies tiers into the parallel home phase and the
// serial shared phase.
type shardPlan struct {
	home   []int // home-routed tier indices, declaration order
	shared []int // shared tier indices, declaration order
	sites  int   // home site count (0 when no home tiers)
}

func planShards(topo Topology) (shardPlan, error) {
	var plan shardPlan
	for ti, t := range topo.Tiers {
		if !t.homeRouted() {
			plan.shared = append(plan.shared, ti)
			continue
		}
		if t.JockeyThreshold > 0 {
			return plan, fmt.Errorf("cluster: tier %q jockeys between sites; not shardable", t.Name)
		}
		if t.Scaler != nil {
			return plan, fmt.Errorf("cluster: home tier %q has an autoscaler (one controller across all sites); not shardable", t.Name)
		}
		plan.home = append(plan.home, ti)
		plan.sites = t.Sites
	}
	for _, sp := range topo.Spills {
		from, to := topo.tierIndex(sp.From), topo.tierIndex(sp.To)
		fromHome := topo.Tiers[from].homeRouted()
		if !fromHome && topo.Tiers[to].homeRouted() {
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

// shardState is one phase-1 shard's working set. Its engine books
// every completion in phase 1 — each happens at a home tier of this
// shard — into the shard's own tier table, e.x.counts, and into its own
// end-to-end cells, which harvest merges with the other engines'.
type shardState struct {
	lo, hi int // global site range
	// perSite is the run's per-site end-to-end table for phase 1, shared
	// by every shard, each adding to its own sites only; nil unless
	// per-site latency is reported.
	perSite []stats.Digest

	siteSeq []uint64 // per local site: boundary capture counter
	offered uint64
	e       *engine // nil until built
	err     error
}

// runShardPhase1 replays one shard's sites through the home tiers,
// streaming boundary crossings into pub. Requests route through
// topoExec.admit exactly as on Run; the exec's cross hook captures
// every request bound for a shared tier. All randomness draws from the
// sites' network streams, so a site behaves identically no matter which
// shard holds it. A failure — a tier that will not build, a
// record outside the shard's sites, a source that goes back in time or
// fails to decode — stops the shard and lands in st.err; pub.finish
// runs on every path, so the ring always closes and the merger cannot
// stall.
func runShardPhase1(topo Topology, plan shardPlan, st *shardState, src Source, opts Options, pub boundaryPublisher) {
	defer pub.finish()
	e, err := buildEngine(topo, opts, newTopologyResult(topo, opts).Tiers, plan.home, st)
	if err != nil {
		st.err = err
		return
	}
	st.e = e
	width := st.hi - st.lo
	st.siteSeq = make([]uint64, width)
	// A shared tier's admission policy runs in phase 2, where it
	// observes the canonical merged order — exactly what Run sees.
	e.x.cross = func(at float64, req *queue.Request, tier int) {
		ls := req.Site - st.lo
		pub.capture(boundaryRec{
			at:        at,
			site:      req.Site,
			seq:       st.siteSeq[ls],
			service:   req.ServiceTime,
			rtt:       req.NetworkRTT,
			aux:       req.AuxRTT,
			generated: req.Generated,
			tier:      tier,
			class:     req.Class,
		})
		st.siteSeq[ls]++
		e.x.pool.Put(req)
	}

	// Site-pinned classes only: planShards rejected Bernoulli fractions,
	// so the router never draws a class stream here.
	route := newRouter(topo, newNetStreams(opts.Seed, st.lo, width), nil)
	what := fmt.Sprintf("shard [%d,%d) source", st.lo, st.hi)
	st.offered, st.err = e.replay(src, what, func(rec RequestRecord, req *queue.Request) {
		if uint(rec.Site-st.lo) >= uint(width) {
			// The engine halts after this event, before the request's
			// arrival can fire.
			e.x.err = fmt.Errorf("cluster: sharded source yielded site %d outside shard [%d,%d)",
				rec.Site, st.lo, st.hi)
			e.x.eng.Stop()
			return
		}
		// The shard clock sits at rec.Time: every boundary capture from
		// here on carries at >= rec.Time, which is what lets the
		// publisher release and watermark.
		pub.advance(rec.Time)
		route.prep(rec, req)
	}, nil)
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
	if shards < 1 {
		return nil, fmt.Errorf("cluster: sharded replay needs at least one shard, got %d (ResolveShards picks a count)", shards)
	}
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
	if shards > sites {
		shards = sites
	}

	var perSite []stats.Digest
	if topo.Tiers[0].homeRouted() && !opts.NoPerSiteLatency {
		perSite = newDigests(opts.Summary, sites)
	}
	// Contiguous balanced site ranges, one shard each.
	states := make([]*shardState, shards)
	lo := 0
	for k := 0; k < shards; k++ {
		width := sites / shards
		if k < sites%shards {
			width++
		}
		states[k] = &shardState{lo: lo, hi: lo + width, perSite: perSite}
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

// buildPhase2 builds phase 2's engine over every shared tier, booking
// into the run's result.
func buildPhase2(r *shardRun) (*engine, error) {
	return buildEngine(r.topo, r.opts, r.res.Tiers, r.plan.shared, nil)
}

// finishSharded closes every engine at the global end time, adds the
// shards' tier tables and every sink's counters into the result, merges
// phase 1's per-site end-to-end digests into phase 2's, and hands the
// shards' sinks and phase 2's sink to harvest, which derives every
// latency digest. A merge gives the same bits in any order, which is
// what keeps the result bit-identical for every shard count.
func finishSharded(r *shardRun, p2 *engine) *TopologyResult {
	topo, plan, opts, res := r.topo, r.plan, r.opts, r.res

	// Tier index -> its runtime: phase 2's exec already holds the shared
	// tiers; each home tier gets a view of every shard's stations in
	// global site order, and of their wait digests merged.
	tiers := p2.x.tiers
	var waits []*stats.Digest
	for _, ti := range plan.home {
		view := &tierRuntime{spec: topo.Tiers[ti], home: true}
		waits = waits[:0]
		for _, st := range r.states {
			rt := st.e.x.tiers[ti]
			view.stations = append(view.stations, rt.stations...)
			if rt.wait != nil {
				waits = append(waits, rt.wait)
			}
		}
		if len(waits) > 0 {
			wait := stats.Merged(waits...)
			view.wait = &wait
		}
		tiers[ti] = view
	}

	// Close every engine at the global end time, so time-weighted
	// metrics (busy integrals, arrival rates) cover the same window for
	// every shard count: the max over engines equals the max over
	// per-site last-event times, which no partition changes.
	engines := []*sim.Engine{p2.x.eng}
	for _, st := range r.states {
		engines = append(engines, st.e.x.eng)
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

	// Harvest the shards' tier tables and every sink's locals.
	home := make([]*sink, len(r.states))
	for i, st := range r.states {
		home[i] = st.e.sink
		res.Offered += st.offered
		st.e.sink.fold(res)
		for _, ti := range plan.home {
			tier, c := &res.Tiers[ti], &st.e.x.counts[ti]
			tier.Served += c.Served
			tier.Dropped += c.Dropped
			tier.Spilled += c.Spilled
			tier.Rejected += c.Rejected
			for k := range tier.Classes {
				tier.Classes[k].Served += c.Classes[k].Served
				tier.Classes[k].Dropped += c.Classes[k].Dropped
				tier.Classes[k].Rejected += c.Classes[k].Rejected
			}
		}
	}
	p2.sink.fold(res)
	if p1 := r.states[0].perSite; p1 != nil {
		for i := range p2.sink.perSite {
			p2.sink.perSite[i] = stats.Merged(&p1[i], &p2.sink.perSite[i])
		}
	}
	harvest(res, tiers, home, p2.sink, opts)
	return res
}
