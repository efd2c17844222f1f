package cluster

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/admit"
	"repro/internal/autoscale"
	"repro/internal/econ"
	"repro/internal/lb"
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
// presets, sources, seeds and summary modes. (The sharded path defines
// its own canonical stream discipline — per-site network streams rather
// than Run's single generation-order stream — so its numbers are a
// deterministic function of the seed but need not equal Run's.)
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

// shardPlan classifies tiers into the parallel home phase and the
// serial shared phase.
type shardPlan struct {
	homeSlot []int // tier index -> slot in home order, or -1
	home     []int // home-routed tier indices, declaration order
	shared   []int // shared tier indices, declaration order
	sites    int   // home site count (0 when no home tiers)
}

func (p *shardPlan) isShared(ti int) bool { return p.homeSlot[ti] < 0 }

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

// homeSpill is one home tier's outgoing spill edge, pre-resolved.
type homeSpill struct {
	spec     SpillEdge
	to       int
	toShared bool
	toSlow   float64
	atGen    bool // entry-tier edge: detour pre-sampled into AuxRTT
}

// shardState is one phase-1 shard's working set and harvest. It doubles
// as the shard's queue.Sink: every completion in phase 1 happens at a
// home tier of this shard.
type shardState struct {
	lo, hi int // global site range
	warmup float64
	slot   []int // tier index -> home slot (shared shardPlan.homeSlot)

	stations [][]*queue.Station // per home slot, per local site
	siteSeq  []uint64           // per local site: boundary capture counter

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
// per-site streams in netSeeds, so a site behaves identically no matter
// which shard holds it.
func runShardPhase1(topo Topology, plan shardPlan, st *shardState, src Source, opts Options, netSeeds []int64, pub boundaryPublisher) {
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
	st.stations = make([][]*queue.Station, len(plan.home))
	for slot, ti := range plan.home {
		t := topo.Tiers[ti]
		st.tierSite[slot] = newDigests(opts.Summary, width)
		st.stations[slot] = make([]*queue.Station, width)
		for ls := 0; ls < width; ls++ {
			gs := st.lo + ls
			c := t.ServersPerSite
			if t.PerSiteServers != nil {
				c = t.PerSiteServers[gs]
			}
			st.stations[slot][ls] = newStation(eng, fmt.Sprintf("%s-%d", t.Name, gs),
				c, t.Discipline, t.QueueCap, opts.Warmup, opts.Summary, pool)
		}
	}

	netRng := make([]*rand.Rand, width)
	for ls := range netRng {
		netRng[ls] = rand.New(rand.NewSource(netSeeds[st.lo+ls]))
	}

	// Resolve spill edges out of home tiers. The entry tier's sampled
	// detour is drawn at generation time in per-site record order and
	// rides in AuxRTT, mirroring Run's generation-time draw.
	spills := make([]*homeSpill, len(plan.home))
	var genSpill *SpillEdge
	for i, sp := range topo.Spills {
		from, to := topo.tierIndex(sp.From), topo.tierIndex(sp.To)
		if sp.DetourPath != nil && from == 0 {
			genSpill = &topo.Spills[i]
		}
		if plan.homeSlot[from] < 0 {
			continue
		}
		spills[plan.homeSlot[from]] = &homeSpill{
			spec:     sp,
			to:       to,
			toShared: plan.isShared(to),
			toSlow:   topo.Tiers[to].SlowdownFactor,
			atGen:    sp.DetourPath != nil && from == 0,
		}
	}

	// Admission policies for the home tiers, one per slot. Buckets are
	// the shard's local sites: token-bucket state is per-site, so a
	// local-site key observes exactly the sequence the serial policy's
	// global-site bucket would — admission is partition-independent.
	adms := make([]admit.Policy, len(plan.home))
	for slot, ti := range plan.home {
		if sp := topo.Tiers[ti].Admission; sp != nil {
			a, err := admit.New(*sp, width)
			if err != nil {
				panic(fmt.Sprintf("cluster: tier %q admission passed Validate but not New: %v",
					topo.Tiers[ti].Name, err))
			}
			adms[slot] = a
		}
	}

	// Site-pinned classes only: planShards rejected Bernoulli fractions,
	// so classification is deterministic per record. Returns the entry
	// tier and the class rank (matched rule index, or the rule count for
	// unclassified traffic).
	classify := func(rec RequestRecord) (int, int) {
		for ci, c := range topo.Classes {
			if c.Sites != nil && !containsInt(c.Sites, rec.Site) {
				continue
			}
			return topo.tierIndex(c.Tier), ci
		}
		return 0, len(topo.Classes)
	}

	capture := func(at float64, req *queue.Request, target int, service float64) {
		ls := req.Site - st.lo
		pub.capture(boundaryRec{
			at:        at,
			site:      req.Site,
			seq:       st.siteSeq[ls],
			service:   service,
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
		if plan.isShared(ti) {
			// Class-pinned straight into the shared phase; ServiceTime is
			// already scaled to the target tier by prep. The shared tier's
			// admission policy runs in phase 2, where it observes the
			// canonical merged order — exactly what the serial run sees.
			capture(e.Now(), req, ti, req.ServiceTime)
			return
		}
		slot := plan.homeSlot[ti]
		ls := req.Site - st.lo
		// Admission before the spill check, mirroring topoExec.admit: a
		// refused request is rejected outright, never spilled.
		if a := adms[slot]; a != nil &&
			!a.Admit(e.Now(), ls, st.stations[slot][ls].QueueLength(), req.Class) {
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
		if hs := spills[slot]; hs != nil && st.stations[slot][ls].Load() >= hs.spec.Threshold {
			st.spilled[slot]++
			slow := topo.Tiers[ti].SlowdownFactor
			extra := hs.spec.DetourRTT
			if hs.atGen {
				extra += req.AuxRTT
			}
			if hs.toShared {
				service := req.ServiceTime
				if hs.toSlow != slow {
					service = service / slow * hs.toSlow
				}
				req.NetworkRTT += extra
				capture(e.Now()+extra/2, req, hs.to, service)
				return
			}
			if hs.toSlow != slow {
				req.ServiceTime = req.ServiceTime / slow * hs.toSlow
			}
			req.Tag = uint64(hs.to)
			req.NetworkRTT += extra
			e.AfterPayload(extra/2, admitEv, req)
			return
		}
		st.stations[slot][ls].Arrive(req)
	}

	f := &feeder{
		src:  src,
		pool: pool,
		sink: st,
		prep: func(rec RequestRecord, req *queue.Request) {
			if rec.Site < st.lo || rec.Site >= st.hi {
				panic(fmt.Sprintf("cluster: sharded source yielded site %d outside shard [%d,%d)",
					rec.Site, st.lo, st.hi))
			}
			// The shard clock sits at rec.Time: every boundary capture
			// from here on carries at >= rec.Time, which is what lets the
			// publisher release and watermark.
			pub.advance(rec.Time)
			entry, class := 0, 0
			if len(topo.Classes) > 0 {
				entry, class = classify(rec)
			}
			et := topo.Tiers[entry]
			path := et.Path
			if et.PerSitePaths != nil {
				path = et.PerSitePaths[rec.Site]
			}
			rng := netRng[rec.Site-st.lo]
			req.NetworkRTT = path.Sample(rng)
			if genSpill != nil {
				// Drawn for every record in per-site record order, so the
				// sequence is independent of routing decisions and of the
				// shard partition.
				req.AuxRTT = genSpill.DetourPath.Sample(rng)
			}
			req.ServiceTime = rec.ServiceTime * et.SlowdownFactor
			req.Tag = uint64(entry)
			req.Class = class
		},
		admit: admitEv,
	}
	f.start(eng)
	eng.Run()
	st.offered = f.count
	if fs, ok := src.(FallibleSource); ok {
		if err := fs.Err(); err != nil {
			st.err = fmt.Errorf("cluster: shard [%d,%d) source failed after %d records: %w",
				st.lo, st.hi, f.count, err)
		}
	}
	// Flush the tail captures. Runs on the error path too, so the ring
	// always closes and the merger cannot stall.
	pub.finish()
}

// phase2Sink records completions at the shared tiers. Counters are
// sink-local so parallel phase-2 partitions never share a scalar;
// per-tier and per-site writes land in partition-exclusive slice
// elements. finishSharded folds the locals into the result.
type phase2Sink struct {
	tiers     []TierResult // the result's tier table (shared, disjoint tags)
	warmup    float64
	perSite   []stats.Digest // per global site, shared-phase e2e (disjoint sites)
	consumed  uint64
	completed uint64
	dropped   uint64
	pre       func() // runs for every consumed request (autoscale drain)
}

// Consume implements queue.Sink.
func (s *phase2Sink) Consume(e *sim.Engine, r *queue.Request) {
	s.consumed++
	if s.pre != nil {
		s.pre()
	}
	if r.Rejected {
		// Already counted at the rejection instant (topoExec.reject);
		// only the conservation counter above sees it here.
		return
	}
	if r.Departure < s.warmup {
		return
	}
	tier := &s.tiers[r.Tag]
	if r.Dropped {
		s.dropped++
		tier.Dropped++
		if tier.Classes != nil {
			tier.Classes[r.Class].Dropped++
		}
		return
	}
	e2e := r.EndToEnd()
	if r.Site >= 0 && r.Site < len(s.perSite) {
		s.perSite[r.Site].Add(e2e)
	}
	s.completed++
	tier.Served++
	tier.EndToEnd.Add(e2e)
	if tier.Classes != nil {
		c := &tier.Classes[r.Class]
		c.Served++
		c.EndToEnd.Add(e2e)
	}
}

// shardRun is one sharded run's shared state: the validated plan, the partition-independent seed derivation, the shard
// site ranges and the result skeleton.
type shardRun struct {
	topo       Topology
	plan       shardPlan
	opts       Options
	sites      int
	shards     int
	netSeeds   []int64
	phase2Seed int64
	states     []*shardState
	res        *TopologyResult
}

// newShardRun validates the run and derives everything both phases
// need. Per-site stream seeds are derived exactly as siteStreams
// derives the generator's: one master stream hands each site a seed in
// site order, then one more seeds the phase-2 engine. The derivation
// never reads the shard count.
func newShardRun(src ShardedSource, topo Topology, opts Options, shards int) (*shardRun, error) {
	topo = topo.normalized()
	if err := topo.Validate(); err != nil {
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
	if opts.Pricing != nil {
		if err := opts.Pricing.Check(); err != nil {
			return nil, fmt.Errorf("cluster: Options.Pricing: %w", err)
		}
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

	master := rand.New(rand.NewSource(opts.Seed))
	netSeeds := make([]int64, sites)
	for i := range netSeeds {
		netSeeds[i] = master.Int63()
	}
	phase2Seed := master.Int63()

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

	// Result skeleton; phase 2 writes its tier counters directly.
	res := &TopologyResult{Result: *newResult(topo.Name, opts.Summary, opts.SizeHint)}
	res.Tiers = make([]TierResult, len(topo.Tiers))
	names := classNamesOf(topo)
	for i := range res.Tiers {
		res.Tiers[i].Name = topo.Tiers[i].Name
		res.Tiers[i].EndToEnd = stats.NewDigest(opts.Summary, 0)
		res.Tiers[i].Wait = stats.NewDigest(opts.Summary, 0)
		res.Tiers[i].Classes = newClassResults(names, opts.Summary)
	}

	return &shardRun{
		topo:       topo,
		plan:       plan,
		opts:       opts,
		sites:      sites,
		shards:     shards,
		netSeeds:   netSeeds,
		phase2Seed: phase2Seed,
		states:     states,
		res:        res,
	}, nil
}

// p2streams pins every phase-2 random-stream seed before any engine is
// built, drawn from the phase-2 seed in the exact order the serial
// engine's NewStream calls consume its primary stream: each shared
// tier's dispatcher stream in tier order, then lazy detour streams in
// spill order. Pinning the seeds lets parallel phase-2 partitions
// construct their streams independently and still match the serial
// engine bit for bit.
type p2streams struct {
	disp  map[int]int64 // tier index -> dispatcher stream seed
	spill map[int]int64 // spill index -> detour stream seed
}

func deriveP2Streams(topo Topology, plan shardPlan, phase2Seed int64) p2streams {
	rng := rand.New(rand.NewSource(phase2Seed))
	s := p2streams{disp: map[int]int64{}, spill: map[int]int64{}}
	for _, ti := range plan.shared {
		if topo.Tiers[ti].Dispatch != CentralQueueDispatch {
			s.disp[ti] = rng.Int63()
		}
	}
	for i, sp := range topo.Spills {
		from := topo.tierIndex(sp.From)
		if plan.homeSlot[from] >= 0 {
			continue // handled inside phase 1
		}
		if sp.DetourPath != nil && from != 0 {
			s.spill[i] = rng.Int63()
		}
	}
	return s
}

// p2build is one phase-2 engine's constructed world: the runtimes for
// its subset of the shared tiers, its request pool, sink and
// controllers. RunPipelined builds one per independent partition of the
// shared tiers.
type p2build struct {
	eng   *sim.Engine
	x     *topoExec
	pool  *queue.FreeList
	sink  *phase2Sink
	ctrls []autoscale.Scaler
}

// buildPhase2 constructs the given shared tiers on a fresh engine,
// following Run's stream discipline scoped to the shared tiers: each
// tier's dispatcher stream in tier order, then lazy spill streams in
// spill order (all pinned by streams); controllers construct-then-Start
// in tier order.
func buildPhase2(r *shardRun, tiers []int, streams p2streams) (*p2build, error) {
	topo, opts := r.topo, r.opts
	eng := sim.NewEngineBackend(r.phase2Seed, opts.backend)
	pool := &queue.FreeList{}
	x := &topoExec{eng: eng, tiers: make([]*tierRuntime, len(topo.Tiers)), res: r.res, pool: pool}
	for _, ti := range tiers {
		t := topo.Tiers[ti]
		rt := &tierRuntime{
			spec:    t,
			central: t.Dispatch == CentralQueueDispatch,
			slow:    t.SlowdownFactor,
		}
		if t.Admission != nil {
			a, err := admit.New(*t.Admission, admitBuckets(t))
			if err != nil {
				return nil, fmt.Errorf("cluster: tier %q admission: %w", t.Name, err)
			}
			rt.adm = a
		}
		rt.stations = make([]*queue.Station, t.Sites)
		rt.servers = make([]queue.Server, t.Sites)
		for i := range rt.stations {
			c := t.ServersPerSite
			if t.PerSiteServers != nil {
				c = t.PerSiteServers[i]
			}
			name := fmt.Sprintf("%s-%d", t.Name, i)
			if rt.central && t.Sites == 1 {
				name = t.Name
			}
			rt.stations[i] = newStation(eng, name, c, t.Discipline,
				t.QueueCap, opts.Warmup, opts.Summary, pool)
			rt.servers[i] = rt.stations[i]
		}
		// Jockeying is home-routed-only (Validate), and jockeying home
		// tiers are unshardable, so shared tiers never need lb.Geographic.
		if !rt.central {
			d, err := lb.New(t.Dispatch, rt.servers, rand.New(rand.NewSource(streams.disp[ti])))
			if err != nil {
				return nil, fmt.Errorf("cluster: tier %q: %w", t.Name, err)
			}
			rt.dispatcher = d
		}
		x.tiers[ti] = rt
	}
	for i, sp := range topo.Spills {
		from, to := topo.tierIndex(sp.From), topo.tierIndex(sp.To)
		if r.plan.homeSlot[from] >= 0 {
			continue // handled inside phase 1
		}
		if x.tiers[from] == nil {
			continue // another partition's edge
		}
		rt := &spillRuntime{spec: sp, to: to}
		if sp.DetourPath != nil {
			if from == 0 {
				// The entry tier's detour was pre-sampled by phase 1 and
				// rides on the boundary record's aux field.
				rt.atGen = true
			} else {
				rt.rng = rand.New(rand.NewSource(streams.spill[i]))
			}
		}
		x.tiers[from].spill = rt
	}
	var ctrls []autoscale.Scaler
	for _, ti := range tiers {
		rt := x.tiers[ti]
		if rt.spec.Scaler == nil {
			continue
		}
		s, err := autoscale.New(*rt.spec.Scaler, eng, rt.stations)
		if err != nil {
			return nil, fmt.Errorf("cluster: tier %q: %w", rt.spec.Name, err)
		}
		s.Start()
		rt.scaler = s
		ctrls = append(ctrls, s)
	}

	sink := &phase2Sink{tiers: r.res.Tiers, warmup: opts.Warmup}
	x.admitEv = func(e *sim.Engine, p any) {
		req := p.(*queue.Request)
		x.admit(int(req.Tag), req)
	}
	return &p2build{eng: eng, x: x, pool: pool, sink: sink, ctrls: ctrls}, nil
}

// finishSharded closes every engine at the global end time, harvests
// the phase-1 and phase-2 counters, merges per-site latency in
// canonical order and assembles the per-tier tables. Every merge runs
// in global site or tier order, independent of the shard partition and
// the phase-2 partitioning, which is what keeps the result
// bit-identical for every shard count.
func finishSharded(r *shardRun, builds []*p2build, perSite []stats.Digest) *TopologyResult {
	topo, plan, opts, res := r.topo, r.plan, r.opts, r.res

	// Tier index -> its phase-2 runtime, across partitions.
	sharedRT := make([]*tierRuntime, len(topo.Tiers))
	for _, b := range builds {
		for ti, rt := range b.x.tiers {
			if rt != nil {
				sharedRT[ti] = rt
			}
		}
	}

	// Close every engine at the global end time, so time-weighted
	// metrics (busy integrals, arrival rates) cover the same window for
	// every shard count and partition: the max over engines equals the
	// max over per-site last-event times, which no partition changes.
	var globalDur float64
	for _, b := range builds {
		if b.eng.Now() > globalDur {
			globalDur = b.eng.Now()
		}
	}
	for _, st := range r.states {
		if st.eng.Now() > globalDur {
			globalDur = st.eng.Now()
		}
	}
	for _, st := range r.states {
		if st.eng.Now() < globalDur {
			st.eng.RunUntil(globalDur)
		}
		for _, row := range st.stations {
			for _, s := range row {
				s.Finish()
			}
		}
	}
	for _, b := range builds {
		if b.eng.Now() < globalDur {
			b.eng.RunUntil(globalDur)
		}
	}
	for _, ti := range plan.shared {
		for _, s := range sharedRT[ti].stations {
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
		res.Consumed += b.sink.consumed
		res.Completed += b.sink.completed
		res.Dropped += b.sink.dropped
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

	// Assemble per-tier station metrics in Run's exact order: tiers
	// outer (declaration order), stations inner (global site order).
	pricing := econ.DefaultPricing()
	if opts.Pricing != nil {
		pricing = *opts.Pricing
	}
	entryHome := plan.homeSlot[0] >= 0
	var busyAll, capAll float64
	for ti := range topo.Tiers {
		tr := &res.Tiers[ti]
		var busy, capacity float64
		if slot := plan.homeSlot[ti]; slot >= 0 {
			for _, st := range r.states {
				for ls, s := range st.stations[slot] {
					gs := st.lo + ls
					m := s.Metrics()
					res.Wait.Merge(&m.Wait)
					tr.Wait.Merge(&m.Wait)
					sr := SiteResult{
						Site:        gs,
						Wait:        m.Wait,
						Utilization: m.Utilization(s.Servers),
						Arrivals:    s.TotalArrivals(),
						MeanRate:    m.Arrivals.Rate(),
					}
					if ti == 0 && entryHome && !opts.NoPerSiteLatency {
						sr.EndToEnd = combined[gs]
					}
					tr.Sites = append(tr.Sites, sr)
					tr.FinalServers = append(tr.FinalServers, s.Servers)
					busy += m.Busy.Average()
					capacity += float64(s.Servers)
				}
			}
		} else {
			rt := sharedRT[ti]
			for i, s := range rt.stations {
				m := s.Metrics()
				res.Wait.Merge(&m.Wait)
				tr.Wait.Merge(&m.Wait)
				tr.Sites = append(tr.Sites, SiteResult{
					Site:        i,
					Wait:        m.Wait,
					Utilization: m.Utilization(s.Servers),
					Arrivals:    s.TotalArrivals(),
					MeanRate:    m.Arrivals.Rate(),
				})
				tr.FinalServers = append(tr.FinalServers, s.Servers)
				busy += m.Busy.Average()
				capacity += float64(s.Servers)
			}
		}
		if capacity > 0 {
			tr.Utilization = busy / capacity
		}
		if rt := sharedRT[ti]; rt != nil && rt.scaler != nil {
			tel := rt.scaler.Telemetry(res.Duration)
			tr.ScalerPolicy = rt.spec.Scaler.Label()
			tr.ScaleUps = tel.ScaleUps
			tr.ScaleDowns = tel.ScaleDowns
			tr.PeakServers = tel.PeakServers
			tr.ServerSeconds = tel.ServerSeconds
			tr.Events = rt.scaler.EventLog()
		} else {
			tr.ServerSeconds = capacity * res.Duration
		}
		priceTier(tr, plan.homeSlot[ti] >= 0, topo.Tiers[ti].PricePerServerHour, pricing, res.Duration)
		res.Rejected += tr.Rejected
		res.TotalCost += tr.Cost + tr.RejectionCost
		busyAll += busy
		capAll += capacity
	}
	if capAll > 0 {
		res.Utilization = busyAll / capAll
	}
	if res.Completed > 0 {
		res.CostPerRequest = res.TotalCost / float64(res.Completed)
	}
	return res
}
