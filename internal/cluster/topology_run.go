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
// warmup, seed 0, exact latency summaries and no timeline.
type Options struct {
	// Warmup discards measurements for requests departing before this
	// simulated time.
	Warmup float64
	// Seed derives every random stream of the run.
	Seed int64
	// Summary selects the latency-collection memory model: stats.Exact
	// (the zero value) retains every observation for exact quantiles;
	// stats.Bounded keeps per-collector state independent of the
	// request count (running moments plus a mergeable log-bucket
	// sketch, quantiles within 2⁻⁷ ≈ 0.78% relative error), the right
	// choice for replays of millions of requests.
	Summary stats.Mode
	// TimelineBin > 0 additionally collects a latency timeline with
	// the given bin width.
	TimelineBin float64
	// NoPerSiteLatency skips the per-home-site end-to-end digests a
	// home-routed entry tier otherwise collects, for long exact-mode
	// replays whose caller only needs tier-level latency.
	NoPerSiteLatency bool
	// Probe, when set, observes the event-calendar size (sim.Engine's
	// Pending) at every generated arrival, a diagnostic for the
	// O(1)-memory property. The count excludes the engine's arrival
	// lane, which holds the feeder's pump.
	Probe func(pending int)
	// Pricing prices each tier's integrated capacity for the cost
	// overlay (nil = econ.DefaultPricing). Tiers may override their
	// per-server-hour price via Tier.PricePerServerHour.
	Pricing *econ.Pricing
	// BacklogProbe, when set on a sharded run, receives the peak
	// count of resident boundary records — captured by phase 1 but not
	// yet admitted to a phase-2 engine — after the run completes (a
	// diagnostic for the bounded-memory property). Ignored elsewhere.
	BacklogProbe func(peak int)
	// GenWorkers selects how many goroutines generate workload records
	// when the run's source comes from a GenSpec (see GenSource):
	// 0 or 1 = the serial Stream, N > 1 = ParallelStream with N
	// workers, -1 = one per CPU. Records are bit-identical either way;
	// only wall-clock changes.
	GenWorkers int

	// backend selects the sim engine's calendar structure. Only tests
	// set it (WithBackend in export_test.go): the reference binary heap
	// implements the default calendar queue's strict event order, and
	// the backend equivalence suite replays whole topologies on both.
	backend sim.Backend
}

// GenSource builds the generator source the options ask for: the serial
// Stream, or ParallelStream when GenWorkers requests parallel
// generation. Both produce the identical record sequence, so callers
// can thread GenWorkers through without touching their results.
func (o Options) GenSource(spec GenSpec) Source {
	if o.GenWorkers > 1 || o.GenWorkers < 0 {
		return ParallelStream(spec, o.GenWorkers)
	}
	return Stream(spec)
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
	// EndToEnd collects client-observed latency of requests served at
	// this tier; Wait merges queueing delay across the tier's
	// stations.
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
	spec       Tier
	stations   []*queue.Station
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
	// atGen marks the edge out of the entry tier whose detour RTT is
	// pre-sampled at generation time (rides in Request.AuxRTT).
	atGen bool
	rng   *rand.Rand // lazy stream for deeper edges
}

// buildTier constructs tier t's stations for the global sites [lo, hi)
// on eng, its routing — a jockeying lb.Geographic or an lb dispatcher,
// each drawing the stream newStream supplies — and its admission
// policy, keyed by local site on home-routed tiers and tier-wide
// elsewhere. Run and phase 2 build whole tiers; a phase-1 shard builds
// its site range of each home tier, which draws no stream (planShards
// rejects jockeying there), so it passes a nil newStream.
func buildTier(eng *sim.Engine, t Tier, lo, hi int, opts Options, pool *queue.FreeList,
	newStream func() *rand.Rand) (*tierRuntime, error) {
	rt := &tierRuntime{
		spec:     t,
		home:     t.homeRouted(),
		central:  t.Dispatch == CentralQueueDispatch,
		slow:     t.SlowdownFactor,
		stations: make([]*queue.Station, hi-lo),
	}
	servers := make([]queue.Server, hi-lo)
	for i := range rt.stations {
		c := t.ServersPerSite
		if t.PerSiteServers != nil {
			c = t.PerSiteServers[lo+i]
		}
		name := fmt.Sprintf("%s-%d", t.Name, lo+i)
		if rt.central && t.Sites == 1 {
			name = t.Name
		}
		rt.stations[i] = newStation(eng, name, c, t.Discipline,
			t.QueueCap, opts.Warmup, opts.Summary, pool)
		servers[i] = rt.stations[i]
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
		rt := &spillRuntime{spec: sp, to: topo.tierIndex(sp.To)}
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
// run's, or one phase-2 partition's (tiers it does not own are nil).
type topoExec struct {
	eng     *sim.Engine
	tiers   []*tierRuntime
	res     *TopologyResult
	pool    *queue.FreeList
	admitEv sim.PayloadEvent
	// err records the first request the run could not route; the
	// engine stops at that event and Run returns it.
	err error
}

func newTopoExec(eng *sim.Engine, pool *queue.FreeList, res *TopologyResult) *topoExec {
	x := &topoExec{eng: eng, tiers: make([]*tierRuntime, len(res.Tiers)), res: res, pool: pool}
	x.admitEv = func(e *sim.Engine, p any) {
		req := p.(*queue.Request)
		x.admit(int(req.Tag), req)
	}
	return x
}

// admPressure returns the admission bucket key and pressure signal for
// a request entering the tier: home-routed tiers are site-local (the
// home station's waiting queue), any other tier is tier-wide (bucket
// 0, the least-loaded station's queue — so a queue-length policy
// rejects only when no station is below its threshold, mirroring
// wouldSpill's all-stations rule).
func admPressure(t *tierRuntime, req *queue.Request) (bucket, waiting int) {
	if t.home {
		return req.Site, t.stations[req.Site].QueueLength()
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
// request's sink, and recycled without ever reaching a station. Only
// tier-indexed counters are touched here — phase-2 partitions share
// one result across engines, and tier entries are partition-exclusive
// where aggregate scalars are not.
func (x *topoExec) reject(ti int, req *queue.Request) {
	tr := &x.res.Tiers[ti]
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
		return t.stations[req.Site].Load() >= thr
	}
	for _, s := range t.stations {
		if s.Load() < thr {
			return false
		}
	}
	return true
}

// admit routes a request at its arrival instant at tier ti: admission
// policy first (a refused request is rejected outright), then spill
// across the tier's edge if saturated, otherwise dispatch into the
// tier's stations.
func (x *topoExec) admit(ti int, req *queue.Request) {
	t := x.tiers[ti]
	if t.home && uint(req.Site) >= uint(len(t.stations)) {
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
		x.res.Tiers[ti].Spilled++
		extra := sp.spec.DetourRTT
		if sp.atGen {
			extra += req.AuxRTT
		} else if sp.rng != nil {
			extra += sp.spec.DetourPath.Sample(sp.rng)
		}
		if to := x.tiers[sp.to]; to.slow != t.slow {
			req.ServiceTime = req.ServiceTime / t.slow * to.slow
		}
		req.Tag = uint64(sp.to)
		req.NetworkRTT += extra
		x.eng.AfterPayload(extra/2, x.admitEv, req)
		return
	}
	switch {
	case t.geo != nil:
		t.geo.Dispatch(req)
	case t.home:
		t.stations[req.Site].Arrive(req)
	case t.central:
		t.stations[0].Arrive(req)
	default:
		t.dispatcher.Dispatch(req)
	}
}

// sink records every finished request of one engine: the serial run's,
// or one phase-2 partition's (phase 1 keeps its slot-indexed
// shardState). Tier and class counters land in the result's tier
// table, where each tier belongs to one engine; the aggregate counters
// stay sink-local until fold, so parallel partitions never share a
// scalar. Requests are recycled right after Consume returns, so nothing
// here may retain them.
type sink struct {
	tiers    []TierResult
	warmup   float64
	all      *stats.Digest     // aggregate end-to-end in completion order (serial only)
	perSite  []stats.Digest    // per home site end-to-end
	timeline *stats.TimeSeries // serial only

	consumed, completed, dropped uint64

	// The controllers' tickers keep the calendar non-empty forever, so
	// they stop once the input has drained and every one of the
	// *emitted requests has been consumed, letting the engine drain.
	ctrls   []*autoscale.Controller
	emitted *uint64
	drained bool
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
	e2e := r.EndToEnd()
	if s.all != nil {
		s.all.Add(e2e)
	}
	if uint(r.Site) < uint(len(s.perSite)) {
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

// newTopologyResult builds a run's empty result: aggregate digests,
// the optional timeline, and one row per tier, with a bucket per SLO
// class rule plus a final "unclassified" one when the topology declares
// classes.
func newTopologyResult(topo Topology, opts Options) *TopologyResult {
	res := &TopologyResult{Result: *newResult(topo.Name, opts.Summary)}
	if opts.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, opts.TimelineBin)
	}
	res.Tiers = make([]TierResult, len(topo.Tiers))
	for i := range res.Tiers {
		tr := &res.Tiers[i]
		tr.Name = topo.Tiers[i].Name
		tr.EndToEnd = stats.NewDigest(opts.Summary, 0)
		tr.Wait = stats.NewDigest(opts.Summary, 0)
		if len(topo.Classes) == 0 {
			continue
		}
		tr.Classes = make([]ClassResult, len(topo.Classes)+1)
		for c := range tr.Classes {
			tr.Classes[c].Name = "unclassified"
			if c < len(topo.Classes) {
				tr.Classes[c].Name = topo.Classes[c].Name
			}
			tr.Classes[c].EndToEnd = stats.NewDigest(opts.Summary, 0)
		}
	}
	return res
}

// Run replays the source through the deployment graph on the streaming
// core: one pending arrival in the calendar, a shared sink, recycled
// requests. It returns per-tier breakdowns alongside the aggregate
// Result. The paper's edge and cloud deployments are one-tier
// topologies, and Run reproduces the seed's dedicated runners for them
// bit for bit (see the equivalence suite). A record whose home site
// lies outside a home-routed tier it enters, or a source that goes
// back in time, fails the run with an error.
func Run(src Source, topo Topology, opts Options) (*TopologyResult, error) {
	defer stopSource(src)
	topo, err := prepareRun(topo, opts)
	if err != nil {
		return nil, err
	}

	// Streams follow the layout in streams.go, shared with
	// RunPipelined.
	eng := sim.NewEngineBackend(opts.Seed, opts.backend)
	seeds := newRouteSeeds(topo, opts.Seed)
	pool := &queue.FreeList{}
	res := newTopologyResult(topo, opts)
	x := newTopoExec(eng, pool, res)
	for ti, t := range topo.Tiers {
		if x.tiers[ti], err = buildTier(eng, t, 0, t.Sites, opts, pool,
			func() *rand.Rand { return seeds.tier(ti) }); err != nil {
			return nil, err
		}
	}
	attachSpills(topo, x.tiers, seeds.spill)
	var classRng *rand.Rand
	for _, c := range topo.Classes {
		if c.Fraction > 0 && c.Fraction < 1 {
			classRng = seeds.class()
			break
		}
	}
	ctrls, err := startScalers(eng, x.tiers)
	if err != nil {
		return nil, err
	}

	var perSite []stats.Digest
	if x.tiers[0].home && !opts.NoPerSiteLatency {
		perSite = newDigests(opts.Summary, topo.Tiers[0].Sites)
	}
	route := newRouter(topo, newNetStreams(opts.Seed, 0, topo.Tiers[0].Sites), classRng)
	f := &feeder{
		src:  src,
		pool: pool,
		prep: func(rec RequestRecord, req *queue.Request) {
			if rec.Site < 0 {
				// The engine halts after this event, before the
				// request's arrival can fire.
				x.err = fmt.Errorf("cluster: record site %d is negative", rec.Site)
				eng.Stop()
				return
			}
			route.prep(rec, req)
		},
		admit: x.admitEv,
		probe: opts.Probe,
	}
	sk := &sink{tiers: res.Tiers, warmup: opts.Warmup, all: &res.EndToEnd, perSite: perSite,
		timeline: res.Timeline, ctrls: ctrls, emitted: &f.count}
	f.sink = sk
	if len(ctrls) > 0 {
		f.onDrained = sk.drain
	}

	var stations []*queue.Station
	for _, rt := range x.tiers {
		stations = append(stations, rt.stations...)
	}
	runDeployment(eng, f, &res.Result, stations)
	sk.stopScalers()
	if x.err != nil {
		return nil, x.err
	}
	if f.err != nil {
		return nil, f.err
	}
	// A source that ended on a decode failure (FallibleSource) must
	// surface it: a replay over the decoded prefix would look like a
	// clean result over a silently truncated workload.
	if e, ok := src.(FallibleSource); ok {
		if err := e.Err(); err != nil {
			return nil, fmt.Errorf("cluster: source failed after %d records: %w", f.count, err)
		}
	}
	res.Offered = f.count
	sk.fold(res)
	harvest(res, x.tiers, perSite, opts.Pricing)
	return res, nil
}

// harvest assembles per-tier and aggregate measurements once every
// engine has closed its stations and every counter has been folded in:
// station rows, wait digests, utilization, scaler telemetry and the
// cost overlay. tiers[i] holds tier i's stations in global site order,
// and the wait digests merge tiers outer, stations inner — the seed
// runners' merge sequence. siteE2E, when non-nil, supplies the entry
// tier's per-site end-to-end digests.
func harvest(res *TopologyResult, tiers []*tierRuntime, siteE2E []stats.Digest, pricing *econ.Pricing) {
	price := econ.DefaultPricing()
	if pricing != nil {
		price = *pricing
	}
	var busyAll, capAll float64
	for ti, rt := range tiers {
		tr := &res.Tiers[ti]
		var busy, capacity float64
		for i, s := range rt.stations {
			m := s.Metrics()
			res.Wait.Merge(&m.Wait)
			tr.Wait.Merge(&m.Wait)
			sr := SiteResult{
				Site:        i,
				Wait:        m.Wait,
				Utilization: m.Utilization(s.Servers),
				Arrivals:    s.TotalArrivals(),
				MeanRate:    m.Arrivals.Rate(),
			}
			if ti == 0 && siteE2E != nil {
				sr.EndToEnd = siteE2E[i]
			}
			tr.Sites = append(tr.Sites, sr)
			tr.FinalServers = append(tr.FinalServers, s.Servers)
			busy += m.Busy.Average()
			capacity += float64(s.Servers)
		}
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
	if capAll > 0 {
		res.Utilization = busyAll / capAll
	}
	if res.Completed > 0 {
		res.CostPerRequest = res.TotalCost / float64(res.Completed)
	}
}
