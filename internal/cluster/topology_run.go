package cluster

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/admit"
	"repro/internal/autoscale"
	"repro/internal/econ"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures one topology run. The zero value replays with no
// warmup, seed 0, bounded latency summaries and no timeline.
type Options struct {
	// Warmup discards measurements for requests departing before this
	// simulated time.
	Warmup float64
	// Seed derives every random stream of the run.
	Seed int64
	// Summary selects the latency-collection memory model.
	// stats.Bounded (the zero value) keeps per-collector state
	// independent of the request count: running moments plus a
	// mergeable log-bucket sketch, quantiles within 2⁻⁷ ≈ 0.78%
	// relative error. stats.Exact retains every observation, 8 B each,
	// and serves as the reference the sketch is tested against.
	Summary stats.Mode
	// TimelineBin > 0 additionally collects a latency timeline with
	// the given bin width.
	TimelineBin float64
	// NoPerSiteLatency drops per-site latency, for many-site or exact
	// replays whose caller only needs tier-level latency: every
	// SiteResult's EndToEnd and Wait is then empty. It skips the
	// per-home-site end-to-end digests a home-routed entry tier
	// otherwise collects, in every engine's sink. It also drops the wait
	// digest each station keeps: every station of a tier adds its waits
	// to one tier digest, published as TierResult.Wait; on a sharded
	// run each shard keeps one per home tier, and the tier's wait merges
	// them.
	NoPerSiteLatency bool
	// Probe, when set, observes the engine's pending events (sim.Engine's
	// Pending: the calendar and the arrival FIFO) at every generated
	// arrival, a diagnostic for the O(1)-memory property. The count
	// excludes the engine's arrival lane, which holds the feeder's pump.
	Probe func(pending int)
	// Pricing prices each tier's integrated capacity for the cost
	// overlay (nil = econ.DefaultPricing). Tiers may override their
	// per-server-hour price via Tier.PricePerServerHour.
	Pricing *econ.Pricing
	// BacklogProbe, when set on a sharded run (RunPipelined), receives
	// the peak count of resident boundary records — captured by phase 1
	// but not yet admitted to the phase-2 engine — after the run
	// completes (a diagnostic for the bounded-memory property). Run has
	// no boundary and rejects it.
	BacklogProbe func(peak int)

	// backend selects the sim engine's calendar structure. Only tests
	// set it (WithBackend in export_test.go): the reference binary heap
	// implements the default calendar queue's strict event order, and
	// the backend equivalence suite replays whole topologies on both.
	backend sim.Backend
}

// TierResult is one tier's share of a topology run.
type TierResult struct {
	Name string
	// Served counts measured completions at the tier; Spilled counts
	// requests the tier forwarded across its spill edge (counted at
	// the arrival instant, warmup included, matching the seed's
	// overflow runner); Dropped counts measured queue rejections.
	Served  uint64
	Spilled uint64
	Dropped uint64
	// Rejected counts requests the tier's admission policy refused at
	// their entry instant (warmup included, like Spilled). A rejected
	// request never reaches a station and never spills, so station
	// arrivals across the run equal Offered minus total rejections.
	Rejected uint64
	// EndToEnd is the client-observed latency of requests served at
	// this tier, merged at harvest from its classes (or its one cell);
	// Wait is the queueing delay at the tier's stations: their digests
	// merged at harvest, or the one digest they all add to when the run
	// reports no per-site latency.
	EndToEnd    stats.Digest
	Wait        stats.Digest
	Utilization float64
	Sites       []SiteResult
	// FinalServers is each station's server count at the end of the
	// run (differs from the configured counts under autoscaling).
	FinalServers []int
	// Scaler telemetry, populated when the tier has a controller.
	// ScalerPolicy is the controller's registry label ("" for static
	// tiers).
	ScalerPolicy string
	ScaleUps     int
	ScaleDowns   int
	PeakServers  int
	Events       []autoscale.Event
	// ServerSeconds integrates the tier's provisioned capacity over
	// the run: servers × duration for static tiers, the controller's
	// piecewise-constant integral for scaled ones.
	ServerSeconds float64
	// Cost overlay (§7 economics generalized to hierarchies): the
	// tier's capacity priced at its per-server-hour rate. Cost is the
	// whole-run spend; CostPerHour is the mean spend rate; CostPerReq
	// divides the spend across the tier's measured completions (0 when
	// the tier served nothing).
	Cost        float64
	CostPerHour float64
	CostPerReq  float64
	// RejectionCost prices the tier's rejected traffic at the run
	// pricing's per-request penalty (econ.Pricing.RejectPenalty): what
	// the shed load cost in lost requests, to weigh against the
	// server-hours the shedding saved. 0 without admission or penalty.
	RejectionCost float64
	// Classes breaks the tier's traffic down by SLO class when the
	// topology declares class rules: one entry per rule in declaration
	// order plus a final "unclassified" bucket for requests no rule
	// matched. Nil when the topology has no classes.
	Classes []ClassResult
}

// ClassResult is one SLO class's share of a tier: measured completions
// and queue drops (warmup excluded, like Served/Dropped) plus admission
// rejections (warmup included, like Rejected) and the class's
// end-to-end latency digest at this tier. Feed per-class means or
// rates to stats.Jain for a fairness index.
type ClassResult struct {
	Name     string
	Served   uint64
	Dropped  uint64
	Rejected uint64
	EndToEnd stats.Digest
}

// TopologyResult is a full topology run: the aggregate Result plus
// per-tier breakdowns and the request-conservation counters
// (Offered == Consumed == measured + warmup-discarded requests).
type TopologyResult struct {
	Result
	Tiers []TierResult
	// Offered counts records pulled from the source; Consumed counts
	// requests that finished (served or dropped, warmup included).
	// Every offered request is eventually consumed.
	Offered  uint64
	Consumed uint64
	// TotalCost sums the per-tier cost overlay (capacity spend plus the
	// lost-request penalty on rejected traffic, in the pricing's
	// currency units); CostPerRequest divides it across all measured
	// completions. Per-tier costs are conserved:
	// TotalCost == Σ (Tiers[i].Cost + Tiers[i].RejectionCost).
	TotalCost      float64
	CostPerRequest float64
}

// Tier returns the named tier's result, or nil.
func (r *TopologyResult) Tier(name string) *TierResult {
	for i := range r.Tiers {
		if r.Tiers[i].Name == name {
			return &r.Tiers[i]
		}
	}
	return nil
}

// tierRuntime is one tier's live state during a run.
type tierRuntime struct {
	spec Tier
	// stations[i] serves global site lo+i: lo is 0 on a whole tier and
	// the shard's first site on a phase-1 shard's home tier.
	lo       int
	stations []*queue.Station
	// wait is the one digest every station of the tier (or of a shard's
	// share of it) adds its waits to when the run reports no per-site
	// latency; nil when each station keeps its own.
	wait       *stats.Digest
	geo        *lb.Geographic
	dispatcher lb.Dispatcher
	home       bool
	central    bool
	scaler     *autoscale.Controller
	spill      *spillRuntime
	slow       float64
	adm        admit.Policy
}

// spillRuntime is one spill edge's live state.
type spillRuntime struct {
	spec SpillEdge
	to   int
	// toSlow is the target tier's slowdown factor: a spilled request's
	// service demand is rescaled to it, also when another engine owns
	// the target.
	toSlow float64
	// atGen marks the edge out of the entry tier whose detour RTT is
	// pre-sampled at generation time (rides in Request.AuxRTT).
	atGen bool
	rng   *rand.Rand // lazy stream for deeper edges
}

// buildTier constructs tier t's stations for the global sites [lo, hi)
// on eng, its routing — a jockeying lb.Geographic or an lb dispatcher,
// each drawing the stream newStream supplies — and its admission
// policy, keyed by local site on home-routed tiers and tier-wide
// elsewhere. buildEngine builds whole tiers for Run and phase 2, and a
// phase-1 shard's site range of each home tier, which draws no stream
// (planShards rejects jockeying there). Without per-site latency every
// station adds its waits to one digest, rt.wait.
func buildTier(eng *sim.Engine, t Tier, lo, hi int, opts Options, pool *queue.FreeList,
	newStream func() *rand.Rand) (*tierRuntime, error) {
	rt := &tierRuntime{
		spec:     t,
		lo:       lo,
		home:     t.homeRouted(),
		central:  t.Dispatch == CentralQueueDispatch,
		slow:     t.SlowdownFactor,
		stations: make([]*queue.Station, hi-lo),
	}
	servers := make([]queue.Server, hi-lo)
	if opts.NoPerSiteLatency {
		d := stats.NewDigest(opts.Summary, 0)
		rt.wait = &d
	}
	for i := range rt.stations {
		c := t.ServersPerSite
		if t.PerSiteServers != nil {
			c = t.PerSiteServers[lo+i]
		}
		name := fmt.Sprintf("%s-%d", t.Name, lo+i)
		if rt.central && t.Sites == 1 {
			name = t.Name
		}
		st := queue.NewStation(eng, name, c, t.Discipline)
		st.QueueCap = t.QueueCap
		st.SetWarmup(opts.Warmup)
		st.SetSummaryMode(opts.Summary)
		st.Recycle = pool
		if rt.wait != nil {
			st.WaitInto(rt.wait)
		}
		rt.stations[i] = st
		servers[i] = st
	}
	if t.JockeyThreshold > 0 {
		rt.geo = lb.NewGeographic(servers, t.JockeyThreshold, t.DetourRTT, newStream())
	} else if !rt.home && !rt.central {
		d, err := lb.New(t.Dispatch, servers, newStream())
		if err != nil {
			return nil, fmt.Errorf("cluster: tier %q: %w", t.Name, err)
		}
		rt.dispatcher = d
	}
	if t.Admission != nil {
		buckets := 1
		if rt.home {
			buckets = hi - lo
		}
		p, err := admit.New(*t.Admission, buckets)
		if err != nil {
			return nil, fmt.Errorf("cluster: tier %q admission: %w", t.Name, err)
		}
		rt.adm = p
	}
	return rt, nil
}

// attachSpills wires every spill edge out of a tier this engine owns
// (a non-nil entry of tiers). The entry tier's sampled detour is drawn
// at generation time and rides in Request.AuxRTT; deeper sampled edges
// draw the stream newStream supplies for their spill index.
func attachSpills(topo Topology, tiers []*tierRuntime, newStream func(spill int) *rand.Rand) {
	for i, sp := range topo.Spills {
		from := topo.tierIndex(sp.From)
		if tiers[from] == nil {
			continue
		}
		to := topo.tierIndex(sp.To)
		rt := &spillRuntime{spec: sp, to: to, toSlow: topo.Tiers[to].SlowdownFactor}
		if sp.DetourPath != nil {
			if from == 0 {
				rt.atGen = true
			} else {
				rt.rng = newStream(i)
			}
		}
		tiers[from].spill = rt
	}
}

// startScalers constructs each owned tier's controller and starts it
// at once, in tier order: construct-then-Start arms each ticker in the
// same calendar sequence the seed's autoscaled runner produced, so
// controllers tick from the moment the calendar starts.
func startScalers(eng *sim.Engine, tiers []*tierRuntime) ([]*autoscale.Controller, error) {
	var ctrls []*autoscale.Controller
	for _, rt := range tiers {
		if rt == nil || rt.spec.Scaler == nil {
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
	return ctrls, nil
}

// router resolves each record's entry tier and SLO class rank and
// fills the request's generation-time fields.
type router struct {
	topo      Topology
	net       *netStreams
	classRng  *rand.Rand  // Bernoulli class draws; nil when no rule has a fraction
	genDetour *netem.Path // the entry tier's sampled spill detour, or nil
}

func newRouter(topo Topology, net *netStreams, classRng *rand.Rand) *router {
	r := &router{topo: topo, net: net, classRng: classRng}
	for _, sp := range topo.Spills {
		if sp.DetourPath != nil && topo.tierIndex(sp.From) == 0 {
			r.genDetour = sp.DetourPath
		}
	}
	return r
}

// classify returns the matched rule's entry tier and index, or tier 0
// and the rule count for unclassified traffic. The Bernoulli draws
// happen in record order regardless of outcome, so the random sequence
// matches the pre-class-rank engine exactly.
func (r *router) classify(rec RequestRecord) (entry, class int) {
	for ci, c := range r.topo.Classes {
		if c.Sites != nil && !slices.Contains(c.Sites, rec.Site) {
			continue
		}
		if c.Fraction > 0 && c.Fraction < 1 && r.classRng.Float64() >= c.Fraction {
			continue
		}
		return r.topo.tierIndex(c.Tier), ci
	}
	return 0, len(r.topo.Classes)
}

// prep fills req from rec: entry tier (Tag), class, service demand
// scaled to the entry tier, and the network RTTs drawn from the
// record's site stream. The entry detour is drawn for every record so
// the sequence is independent of routing decisions.
func (r *router) prep(rec RequestRecord, req *queue.Request) {
	entry, class := 0, 0
	if len(r.topo.Classes) > 0 {
		entry, class = r.classify(rec)
	}
	et := &r.topo.Tiers[entry]
	path := &et.Path
	// An out-of-range site keeps the tier path; admission then fails
	// the run on it.
	if et.PerSitePaths != nil && uint(rec.Site) < uint(len(et.PerSitePaths)) {
		path = &et.PerSitePaths[rec.Site]
	}
	req.NetworkRTT = r.net.draw(path, rec.Site)
	if r.genDetour != nil {
		req.AuxRTT = r.net.draw(r.genDetour, rec.Site)
	}
	req.ServiceTime = rec.ServiceTime * et.SlowdownFactor
	req.Tag = uint64(entry)
	req.Class = class
}

// topoExec routes requests through one engine's tiers: the serial
// run's, a phase-1 shard's home tiers, or phase 2's shared tiers (tiers
// the engine does not own are nil). It is the only code that applies
// admission, the spill threshold, the detour and the service rescale.
type topoExec struct {
	eng   *sim.Engine
	tiers []*tierRuntime
	// counts is the tier table admit books spills and rejections in:
	// the run's result on one engine, a shard's own table in phase 1.
	counts  []TierResult
	pool    *queue.FreeList
	admitEv sim.PayloadEvent
	// cross hands a request bound for a tier another engine owns to
	// that engine, arriving at time at. Only phase-1 shards set it: Run
	// and phase 2 own every tier a request can reach.
	cross func(at float64, req *queue.Request, tier int)
	// err records the first request the run could not route; the
	// engine stops at that event and Run returns it.
	err error
}

func newTopoExec(eng *sim.Engine, pool *queue.FreeList, counts []TierResult) *topoExec {
	x := &topoExec{eng: eng, tiers: make([]*tierRuntime, len(counts)), counts: counts, pool: pool}
	x.admitEv = func(e *sim.Engine, p any) {
		req := p.(*queue.Request)
		x.admit(int(req.Tag), req)
	}
	return x
}

// admPressure returns the admission bucket key and pressure signal for
// a request entering the tier: home-routed tiers are site-local (the
// home station's index and waiting queue), any other tier is tier-wide
// (bucket 0, the least-loaded station's queue — so a queue-length
// policy rejects only when no station is below its threshold,
// mirroring wouldSpill's all-stations rule). Token-bucket state is per
// bucket, so a shard's local-site key sees exactly the sequence the
// whole tier's global-site key would.
func admPressure(t *tierRuntime, req *queue.Request) (bucket, waiting int) {
	if t.home {
		i := req.Site - t.lo
		return i, t.stations[i].QueueLength()
	}
	min := t.stations[0].QueueLength()
	for _, s := range t.stations[1:] {
		if q := s.QueueLength(); q < min {
			min = q
		}
	}
	return 0, min
}

// reject refuses a request at tier entry: counted at the rejection
// instant (warmup included, like Spilled), consumed through the
// request's sink, and recycled without ever reaching a station.
func (x *topoExec) reject(ti int, req *queue.Request) {
	tr := &x.counts[ti]
	tr.Rejected++
	if tr.Classes != nil {
		tr.Classes[req.Class].Rejected++
	}
	req.Rejected = true
	req.Departure = x.eng.Now()
	if req.Done != nil {
		req.Done.Consume(x.eng, req)
	}
	x.pool.Put(req)
}

// wouldSpill reports whether the tier is saturated for this request: a
// home-routed tier checks the request's home station, any other tier
// spills only when every station it could route to is at or beyond
// the threshold.
func (x *topoExec) wouldSpill(t *tierRuntime, req *queue.Request) bool {
	thr := t.spill.spec.Threshold
	if t.home {
		return t.stations[req.Site-t.lo].Load() >= thr
	}
	for _, s := range t.stations {
		if s.Load() < thr {
			return false
		}
	}
	return true
}

// admit routes a request at its arrival instant at tier ti: a tier
// another engine owns takes it across the boundary; otherwise the
// admission policy runs first (a refused request is rejected
// outright), then a saturated tier spills across its edge, and else
// the request is dispatched into the tier's stations.
func (x *topoExec) admit(ti int, req *queue.Request) {
	t := x.tiers[ti]
	if t == nil {
		// A class pinned past this engine's tiers. Its admission runs on
		// the owning engine, in that engine's arrival order.
		x.cross(x.eng.Now(), req, ti)
		return
	}
	if t.home && uint(req.Site-t.lo) >= uint(len(t.stations)) {
		x.err = fmt.Errorf("cluster: request home site %d outside tier %q (%d sites)",
			req.Site, t.spec.Name, len(t.stations))
		x.eng.Stop()
		return
	}
	if t.adm != nil {
		bucket, waiting := admPressure(t, req)
		if !t.adm.Admit(x.eng.Now(), bucket, waiting, req.Class) {
			x.reject(ti, req)
			return
		}
	}
	if t.spill != nil && x.wouldSpill(t, req) {
		sp := t.spill
		x.counts[ti].Spilled++
		extra := sp.spec.DetourRTT
		if sp.atGen {
			extra += req.AuxRTT
		} else if sp.rng != nil {
			extra += sp.spec.DetourPath.Sample(sp.rng)
		}
		if sp.toSlow != t.slow {
			req.ServiceTime = req.ServiceTime / t.slow * sp.toSlow
		}
		req.Tag = uint64(sp.to)
		req.NetworkRTT += extra
		if x.tiers[sp.to] == nil {
			// Straight across the boundary: no calendar event for the
			// detour on this engine.
			x.cross(x.eng.Now()+extra/2, req, sp.to)
			return
		}
		x.eng.AfterPayload(extra/2, x.admitEv, req)
		return
	}
	switch {
	case t.geo != nil:
		t.geo.Dispatch(req)
	case t.home:
		t.stations[req.Site-t.lo].Arrive(req)
	case t.central:
		t.stations[0].Arrive(req)
	default:
		t.dispatcher.Dispatch(req)
	}
}

// sink records every finished request of one engine — Run's, a phase-1
// shard's or phase 2's — and is the only queue.Sink the engines use.
// Served, dropped and class counters land in tiers, the engine's tier
// table (the result's on Run and phase 2, a shard's own on a shard);
// the aggregate counters stay sink-local until fold. A measured
// completion's end-to-end latency goes into exactly one cell, its
// (tier, class) one, and into its home site's digest only when per-site
// latency is reported; harvest derives every class, tier and run digest
// from the cells. Requests are recycled right after Consume returns, so
// nothing here may retain them.
type sink struct {
	tiers  []TierResult
	warmup float64
	// cells[t] holds tier t's end-to-end cells, one per class rank (one
	// when the topology declares no classes); nil for a tier another
	// engine owns.
	cells [][]stats.Digest
	// perSite holds each home site's end-to-end digest, by global site,
	// when per-site latency is reported. The phase-1 shards of a run
	// share one table, each adding to its own sites only.
	perSite  []stats.Digest
	timeline *stats.TimeSeries // Run only

	consumed, completed, dropped uint64

	// The controllers' tickers keep the calendar non-empty forever, so
	// they stop once the input has drained and every one of the
	// *emitted requests has been consumed, letting the engine drain.
	ctrls   []*autoscale.Controller
	emitted *uint64
	drained bool
}

// newSink returns a sink booking into counts, with end-to-end cells for
// every tier the engine owns (a non-nil entry of owned).
func newSink(counts []TierResult, owned []*tierRuntime, opts Options) *sink {
	s := &sink{tiers: counts, warmup: opts.Warmup, cells: make([][]stats.Digest, len(counts))}
	for ti, rt := range owned {
		if rt != nil {
			s.cells[ti] = newDigests(opts.Summary, max(len(counts[ti].Classes), 1))
		}
	}
	return s
}

// Consume implements queue.Sink.
func (s *sink) Consume(e *sim.Engine, r *queue.Request) {
	s.consumed++
	if s.ctrls != nil {
		s.settle()
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
	s.completed++
	tier.Served++
	if tier.Classes != nil {
		tier.Classes[r.Class].Served++
	}
	e2e := r.EndToEnd()
	s.cells[r.Tag][r.Class].Add(e2e)
	if uint(r.Site) < uint(len(s.perSite)) {
		s.perSite[r.Site].Add(e2e)
	}
	if s.timeline != nil {
		s.timeline.Add(r.Generated, e2e)
	}
}

// drain marks the input exhausted and stops the controllers if every
// emitted request has already been consumed.
func (s *sink) drain() {
	s.drained = true
	s.settle()
}

func (s *sink) settle() {
	if s.drained && s.consumed == *s.emitted {
		s.stopScalers()
	}
}

func (s *sink) stopScalers() {
	for _, c := range s.ctrls {
		c.Stop()
	}
}

// fold adds the sink-local aggregate counters into the result.
func (s *sink) fold(res *TopologyResult) {
	res.Consumed += s.consumed
	res.Completed += s.completed
	res.Dropped += s.dropped
}

// prepareRun normalizes and validates what both engines need checked
// before they build anything.
func prepareRun(topo Topology, opts Options) (Topology, error) {
	topo = topo.normalized()
	if err := topo.Validate(); err != nil {
		return topo, err
	}
	if opts.Pricing != nil {
		if err := opts.Pricing.Check(); err != nil {
			return topo, fmt.Errorf("cluster: Options.Pricing: %w", err)
		}
	}
	return topo, nil
}

// newTopologyResult builds a run's empty result: the optional timeline
// and one row per tier, with a bucket per SLO class rule plus a final
// "unclassified" one when the topology declares classes. harvest
// derives every latency digest.
func newTopologyResult(topo Topology, opts Options) *TopologyResult {
	res := &TopologyResult{Result: Result{Label: topo.Name}}
	if opts.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, opts.TimelineBin)
	}
	res.Tiers = make([]TierResult, len(topo.Tiers))
	for i := range res.Tiers {
		tr := &res.Tiers[i]
		tr.Name = topo.Tiers[i].Name
		if len(topo.Classes) == 0 {
			continue
		}
		tr.Classes = make([]ClassResult, len(topo.Classes)+1)
		for c := range tr.Classes {
			tr.Classes[c].Name = "unclassified"
			if c < len(topo.Classes) {
				tr.Classes[c].Name = topo.Classes[c].Name
			}
		}
	}
	return res
}

// Run replays the source through the deployment graph on the streaming
// core: one pending pump event in the engine, a shared sink, recycled
// requests. It returns per-tier breakdowns alongside the aggregate
// Result. The paper's edge and cloud deployments are one-tier
// topologies, and Run reproduces the seed's dedicated runners for them
// bit for bit (see the equivalence suite). A record whose home site
// lies outside a home-routed tier it enters, or a source that goes
// back in time, fails the run with an error. Options.BacklogProbe, a
// diagnostic of the sharded backend, is rejected.
func Run(src Source, topo Topology, opts Options) (*TopologyResult, error) {
	defer stopSource(src)
	topo, err := prepareRun(topo, opts)
	if err != nil {
		return nil, err
	}
	if opts.BacklogProbe != nil {
		return nil, fmt.Errorf("cluster: Run has no boundary backlog for Options.BacklogProbe to observe; use RunPipelined")
	}

	res := newTopologyResult(topo, opts)
	owned := make([]int, len(topo.Tiers))
	for ti := range owned {
		owned[ti] = ti
	}
	e, err := buildEngine(topo, opts, res.Tiers, owned, nil)
	if err != nil {
		return nil, err
	}
	e.sink.timeline = res.Timeline
	var classRng *rand.Rand
	for _, c := range topo.Classes {
		if c.Fraction > 0 && c.Fraction < 1 {
			classRng = newRouteSeeds(topo, opts.Seed).class()
			break
		}
	}
	route := newRouter(topo, newNetStreams(opts.Seed, 0, topo.Tiers[0].Sites), classRng)
	offered, err := e.replay(src, "source", func(rec RequestRecord, req *queue.Request) {
		if rec.Site < 0 {
			// The engine halts after this event, before the request's
			// arrival can fire.
			e.x.err = fmt.Errorf("cluster: record site %d is negative", rec.Site)
			e.x.eng.Stop()
			return
		}
		route.prep(rec, req)
	}, opts.Probe)
	if err != nil {
		return nil, err
	}
	res.Duration = e.x.eng.Now()
	for _, rt := range e.x.tiers {
		for _, s := range rt.stations {
			s.Finish()
		}
	}
	res.Offered = offered
	e.sink.fold(res)
	harvest(res, e.x.tiers, nil, e.sink, opts)
	return res, nil
}

// harvest assembles per-tier and aggregate measurements once every
// engine has closed its stations and every counter has been folded in:
// latency digests, station rows, wait digests, utilization, scaler
// telemetry and the cost overlay. It is the one harvest step of Run,
// RunPipelined and the barrier oracle, over engines buildEngine built.
// tiers[i] holds tier i's stations in global site order. home lists the
// phase-1 shards' sinks (nil on Run), and sk is the sink of the engine
// that owns every other tier: Run's or phase 2's. sk's per-site table
// (merged with phase 1's by finishSharded) fills the entry tier's site
// rows.
//
// Every coarser digest is derived here, once, with stats.Merged (see
// deriveLatency). A tier's wait is its one tier digest when it has one
// (rt.wait), else the merge of its stations'; the run's wait merges the
// tiers'. A merge with one non-empty input shares it: a tier's one
// digest is its wait, a one-station tier's wait is its station's, and a
// one-tier run's aggregate wait and end-to-end digests are its tier's.
// A digest's moments and quantiles do not depend on merge order, so
// neither the order here nor the shard partition moves a bit. Station
// rows carry their wait digest only when per-site latency is reported,
// like their end-to-end digest.
func harvest(res *TopologyResult, tiers []*tierRuntime, home []*sink, sk *sink, opts Options) {
	deriveLatency(res, home, sk)
	price := econ.DefaultPricing()
	if opts.Pricing != nil {
		price = *opts.Pricing
	}
	var busyAll, capAll float64
	var waits []*stats.Digest
	tierWaits := make([]*stats.Digest, len(tiers))
	for ti, rt := range tiers {
		tr := &res.Tiers[ti]
		var busy, capacity float64
		waits = waits[:0]
		if rt.wait != nil {
			waits = append(waits, rt.wait)
		}
		for i, s := range rt.stations {
			m := s.Metrics()
			if rt.wait == nil {
				waits = append(waits, &m.Wait)
			}
			sr := SiteResult{
				Site:        i,
				Utilization: m.Utilization(s.Servers),
				Arrivals:    s.TotalArrivals(),
				MeanRate:    m.Arrivals.Rate(),
			}
			if !opts.NoPerSiteLatency {
				sr.Wait = m.Wait
			}
			if ti == 0 && sk.perSite != nil {
				sr.EndToEnd = sk.perSite[i]
			}
			tr.Sites = append(tr.Sites, sr)
			tr.FinalServers = append(tr.FinalServers, s.Servers)
			busy += m.Busy.Average()
			capacity += float64(s.Servers)
		}
		tr.Wait = stats.Merged(waits...)
		tierWaits[ti] = &tr.Wait
		if capacity > 0 {
			tr.Utilization = busy / capacity
		}
		if rt.geo != nil {
			res.Redirected += rt.geo.Redirected
		}
		if rt.scaler != nil {
			tel := rt.scaler.Telemetry(res.Duration)
			tr.ScalerPolicy = rt.spec.Scaler.Label()
			tr.ScaleUps = tel.ScaleUps
			tr.ScaleDowns = tel.ScaleDowns
			tr.PeakServers = tel.PeakServers
			tr.ServerSeconds = tel.ServerSeconds
			tr.Events = rt.scaler.EventLog()
		} else {
			// Static tiers hold their configured capacity for the whole
			// run.
			tr.ServerSeconds = capacity * res.Duration
		}
		// Cost overlay: the capacity integral priced at the tier's
		// override or the run pricing's rate for its shape, plus the
		// lost-request penalty on rejected traffic.
		rate := rt.spec.PricePerServerHour
		if rate <= 0 {
			rate = price.CloudPerServerHour
			if rt.home {
				rate = price.EdgePerServerHour
			}
		}
		tr.Cost = tr.ServerSeconds / 3600 * rate
		if res.Duration > 0 {
			tr.CostPerHour = tr.Cost / (res.Duration / 3600)
		}
		if tr.Served > 0 {
			tr.CostPerReq = tr.Cost / float64(tr.Served)
		}
		tr.RejectionCost = float64(tr.Rejected) * price.RejectPenalty
		res.Rejected += tr.Rejected
		res.TotalCost += tr.Cost + tr.RejectionCost
		busyAll += busy
		capAll += capacity
	}
	res.Wait = stats.Merged(tierWaits...)
	if capAll > 0 {
		res.Utilization = busyAll / capAll
	}
	if res.Completed > 0 {
		res.CostPerRequest = res.TotalCost / float64(res.Completed)
	}
}

// deriveLatency sets every class, tier and run end-to-end digest from
// the sinks' cells: a class merges its cells from every engine that
// owns its tier, a tier merges its classes or is its one cell when the
// topology declares no classes, and the run merges the tiers.
func deriveLatency(res *TopologyResult, home []*sink, sk *sink) {
	sinks := append(home[:len(home):len(home)], sk)
	var parts []*stats.Digest
	cells := func(ti, c int) []*stats.Digest {
		parts = parts[:0]
		for _, s := range sinks {
			if s.cells[ti] != nil {
				parts = append(parts, &s.cells[ti][c])
			}
		}
		return parts
	}
	tierE2E := make([]*stats.Digest, len(res.Tiers))
	for ti := range res.Tiers {
		tr := &res.Tiers[ti]
		if tr.Classes == nil {
			tr.EndToEnd = stats.Merged(cells(ti, 0)...)
		} else {
			classE2E := make([]*stats.Digest, len(tr.Classes))
			for c := range tr.Classes {
				tr.Classes[c].EndToEnd = stats.Merged(cells(ti, c)...)
				classE2E[c] = &tr.Classes[c].EndToEnd
			}
			tr.EndToEnd = stats.Merged(classE2E...)
		}
		tierE2E[ti] = &tr.EndToEnd
	}
	res.EndToEnd = stats.Merged(tierE2E...)
}
