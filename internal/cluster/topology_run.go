package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/admit"
	"repro/internal/autoscale"
	"repro/internal/econ"
	"repro/internal/lb"
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
	// SizeHint pre-allocates exact-mode digests to the expected
	// completion count (the trace length), so retained samples do not
	// regrow from nil.
	SizeHint int
	// NoPerSiteLatency skips the per-home-site end-to-end digests a
	// home-routed entry tier otherwise collects, for long exact-mode
	// replays whose caller only needs tier-level latency.
	NoPerSiteLatency bool
	// Probe, when set, observes the event-calendar size at every
	// generated arrival (a diagnostic for the O(1)-memory property).
	Probe func(pending int)
	// Pricing prices each tier's integrated capacity for the cost
	// overlay (nil = econ.DefaultPricing). Tiers may override their
	// per-server-hour price via Tier.PricePerServerHour.
	Pricing *econ.Pricing
	// Backend selects the sim engine's calendar structure. The default
	// calendar queue and the reference binary heap implement the same
	// strict event order, so results are bit-identical either way; the
	// equivalence suite runs both to prove it.
	Backend sim.Backend
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
	servers    []queue.Server
	geo        *lb.Geographic
	dispatcher lb.Dispatcher
	home       bool
	central    bool
	scaler     autoscale.Scaler
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

// topoExec executes one topology run.
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

// topoSink records every finished request of a topology run. One sink
// is shared by all requests; requests are recycled right after Consume
// returns, so nothing here may retain them.
type topoSink struct {
	res     *TopologyResult
	warmup  float64
	perSite []stats.Digest // per home-site end-to-end, home-routed entry tier
	pre     func()         // runs for every consumed request (autoscale drain)
}

// Consume implements queue.Sink.
func (s *topoSink) Consume(e *sim.Engine, r *queue.Request) {
	s.res.Consumed++
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
	tier := &s.res.Tiers[r.Tag]
	if r.Dropped {
		s.res.Dropped++
		tier.Dropped++
		if tier.Classes != nil {
			tier.Classes[r.Class].Dropped++
		}
		return
	}
	e2e := r.EndToEnd()
	s.res.EndToEnd.Add(e2e)
	if s.perSite != nil && r.Site >= 0 && r.Site < len(s.perSite) {
		s.perSite[r.Site].Add(e2e)
	}
	s.res.Completed++
	tier.Served++
	tier.EndToEnd.Add(e2e)
	if tier.Classes != nil {
		c := &tier.Classes[r.Class]
		c.Served++
		c.EndToEnd.Add(e2e)
	}
	if s.res.Timeline != nil {
		s.res.Timeline.Add(r.Generated, e2e)
	}
}

// Run replays the source through the deployment graph on the streaming
// core: one pending arrival in the calendar, a shared sink, recycled
// requests. It returns per-tier breakdowns alongside the aggregate
// Result. The paper's edge and cloud deployments are one-tier
// topologies, and Run reproduces the seed's dedicated runners for them
// bit for bit (see the equivalence suite). A record whose home site
// lies outside a home-routed tier it enters fails the run with an
// error.
func Run(src Source, topo Topology, opts Options) (*TopologyResult, error) {
	topo = topo.normalized()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.Pricing != nil {
		if err := opts.Pricing.Check(); err != nil {
			return nil, fmt.Errorf("cluster: Options.Pricing: %w", err)
		}
	}

	eng := sim.NewEngineBackend(opts.Seed, opts.Backend)
	netRng := eng.NewStream()
	pool := &queue.FreeList{}

	// Build tiers in declaration order. Stream creation order is part
	// of the reproducibility contract: the network stream first, then
	// each tier's jockey/dispatcher stream, then lazy spill streams,
	// then the class stream — so the paper's one-tier deployments
	// consume streams exactly as the seed's runners did.
	x := &topoExec{eng: eng, tiers: make([]*tierRuntime, len(topo.Tiers))}
	for ti := range topo.Tiers {
		t := topo.Tiers[ti]
		rt := &tierRuntime{
			spec:    t,
			home:    t.homeRouted(),
			central: t.Dispatch == CentralQueueDispatch,
			slow:    t.SlowdownFactor,
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
		if t.JockeyThreshold > 0 {
			rt.geo = lb.NewGeographic(rt.servers, t.JockeyThreshold, t.DetourRTT, eng.NewStream())
		} else if !rt.home && !rt.central {
			d, err := lb.New(t.Dispatch, rt.servers, eng.NewStream())
			if err != nil {
				return nil, fmt.Errorf("cluster: tier %q: %w", t.Name, err)
			}
			rt.dispatcher = d
		}
		if t.Admission != nil {
			p, err := admit.New(*t.Admission, admitBuckets(t))
			if err != nil {
				return nil, fmt.Errorf("cluster: tier %q: %w", t.Name, err)
			}
			rt.adm = p
		}
		x.tiers[ti] = rt
	}

	// Attach spill edges; the entry tier's sampled detour is drawn at
	// generation time from the network stream (compatible with the
	// seed's overflow runner), deeper sampled edges get their own streams.
	var genSpill *spillRuntime
	for _, sp := range topo.Spills {
		from, to := topo.tierIndex(sp.From), topo.tierIndex(sp.To)
		rt := &spillRuntime{spec: sp, to: to}
		if sp.DetourPath != nil {
			if from == 0 {
				rt.atGen = true
				genSpill = rt
			} else {
				rt.rng = eng.NewStream()
			}
		}
		x.tiers[from].spill = rt
	}
	var classRng *rand.Rand
	for _, c := range topo.Classes {
		if c.Fraction > 0 && c.Fraction < 1 {
			classRng = eng.NewStream()
			break
		}
	}

	// Controllers tick from the moment the calendar starts, exactly as
	// in the seed's autoscaled runner: construct-then-Start in tier
	// order arms each ticker in the same calendar sequence the
	// pre-Scaler code produced.
	var ctrls []autoscale.Scaler
	for _, rt := range x.tiers {
		if rt.spec.Scaler != nil {
			s, err := autoscale.New(*rt.spec.Scaler, eng, rt.stations)
			if err != nil {
				return nil, fmt.Errorf("cluster: tier %q: %w", rt.spec.Name, err)
			}
			s.Start()
			rt.scaler = s
			ctrls = append(ctrls, s)
		}
	}

	res := &TopologyResult{Result: *newResult(topo.Name, opts.Summary, opts.SizeHint)}
	if opts.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, opts.TimelineBin)
	}
	names := classNamesOf(topo)
	res.Tiers = make([]TierResult, len(topo.Tiers))
	for i := range res.Tiers {
		res.Tiers[i].Name = topo.Tiers[i].Name
		res.Tiers[i].EndToEnd = stats.NewDigest(opts.Summary, 0)
		res.Tiers[i].Wait = stats.NewDigest(opts.Summary, 0)
		res.Tiers[i].Classes = newClassResults(names, opts.Summary)
	}
	x.res = res
	x.pool = pool

	entry0 := x.tiers[0]
	var perSite []stats.Digest
	if entry0.home && !opts.NoPerSiteLatency {
		perSite = newDigests(opts.Summary, entry0.spec.Sites)
	}
	sink := &topoSink{res: res, warmup: opts.Warmup, perSite: perSite}
	x.admitEv = func(e *sim.Engine, p any) {
		req := p.(*queue.Request)
		x.admit(int(req.Tag), req)
	}

	// classify resolves a record's entry tier and SLO class rank: the
	// matched rule's index, or the rule count for unclassified traffic.
	// The Bernoulli draws happen in record order regardless of outcome,
	// so the random sequence matches the pre-class-rank engine exactly.
	classify := func(rec RequestRecord) (entry, class int) {
		for ci, c := range topo.Classes {
			if c.Sites != nil && !containsInt(c.Sites, rec.Site) {
				continue
			}
			if c.Fraction > 0 && c.Fraction < 1 && classRng.Float64() >= c.Fraction {
				continue
			}
			return topo.tierIndex(c.Tier), ci
		}
		return 0, len(topo.Classes)
	}

	f := &feeder{
		src:  src,
		pool: pool,
		sink: sink,
		prep: func(rec RequestRecord, req *queue.Request) {
			entry, class := 0, 0
			if len(topo.Classes) > 0 {
				entry, class = classify(rec)
			}
			req.Class = class
			et := x.tiers[entry]
			path := et.spec.Path
			// An out-of-range site keeps the tier path; admit then
			// fails the run on it.
			if et.spec.PerSitePaths != nil && uint(rec.Site) < uint(len(et.spec.PerSitePaths)) {
				path = et.spec.PerSitePaths[rec.Site]
			}
			req.NetworkRTT = path.Sample(netRng)
			if genSpill != nil {
				// Drawn for every record in record order so the random
				// sequence is independent of routing decisions.
				req.AuxRTT = genSpill.spec.DetourPath.Sample(netRng)
			}
			req.ServiceTime = rec.ServiceTime * et.slow
			req.Tag = uint64(entry)
		},
		admit: x.admitEv,
		probe: opts.Probe,
	}
	if len(ctrls) > 0 {
		// The controllers' tickers keep the calendar non-empty forever;
		// stop them once the source is drained and every emitted
		// request has been consumed, letting the engine drain.
		var drained bool
		stopAll := func() {
			if drained && res.Consumed == f.count {
				for _, c := range ctrls {
					c.Stop()
				}
			}
		}
		sink.pre = stopAll
		f.onDrained = func() {
			drained = true
			stopAll()
		}
	}

	var stations []*queue.Station
	for _, rt := range x.tiers {
		stations = append(stations, rt.stations...)
	}
	runDeployment(eng, f, &res.Result, stations)
	for _, c := range ctrls {
		c.Stop()
	}
	if x.err != nil {
		return nil, x.err
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

	// Assemble per-tier and aggregate measurements. The aggregate wait
	// digest merges station by station in global order, matching the
	// seed runners' merge sequence exactly.
	pricing := econ.DefaultPricing()
	if opts.Pricing != nil {
		pricing = *opts.Pricing
	}
	var busyAll, capAll float64
	for ti, rt := range x.tiers {
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
			if ti == 0 && perSite != nil {
				sr.EndToEnd = perSite[i]
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
		priceTier(tr, rt.home, rt.spec.PricePerServerHour, pricing, res.Duration)
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
	return res, nil
}

// priceTier applies the cost overlay to one assembled tier: capacity
// integral priced at the tier's override or the run pricing's rate for
// its shape, plus the lost-request penalty on rejected traffic. Shared
// by Run and RunPipelined so the two paths cannot drift. The tier's
// Rejected counter must be final before this runs.
func priceTier(tr *TierResult, home bool, override float64, pricing econ.Pricing, duration float64) {
	price := override
	if price <= 0 {
		if home {
			price = pricing.EdgePerServerHour
		} else {
			price = pricing.CloudPerServerHour
		}
	}
	tr.Cost = tr.ServerSeconds / 3600 * price
	if duration > 0 {
		tr.CostPerHour = tr.Cost / (duration / 3600)
	}
	if tr.Served > 0 {
		tr.CostPerReq = tr.Cost / float64(tr.Served)
	}
	tr.RejectionCost = float64(tr.Rejected) * pricing.RejectPenalty
}

// admitBuckets returns the tier's admission bucket count: one per site
// on home-routed tiers (site-local state, the shardable shape), one
// for the whole tier elsewhere.
func admitBuckets(t Tier) int {
	if t.homeRouted() {
		return t.Sites
	}
	return 1
}

// classNamesOf lists the topology's SLO class buckets — one per rule
// plus a trailing "unclassified" — or nil when it declares no classes.
func classNamesOf(topo Topology) []string {
	if len(topo.Classes) == 0 {
		return nil
	}
	names := make([]string, len(topo.Classes)+1)
	for i, c := range topo.Classes {
		names[i] = c.Name
	}
	names[len(topo.Classes)] = "unclassified"
	return names
}

// newClassResults builds empty per-class result rows in the given
// summary mode; nil names yields nil.
func newClassResults(names []string, mode stats.Mode) []ClassResult {
	if names == nil {
		return nil
	}
	out := make([]ClassResult, len(names))
	for i := range out {
		out[i].Name = names[i]
		out[i].EndToEnd = stats.NewDigest(mode, 0)
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
