package cluster

import (
	"fmt"
	"sync"

	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DispatchPolicy selects the cloud load-balancing policy.
type DispatchPolicy string

// Supported cloud dispatch policies. All but CentralQueue resolve
// through the lb.New registry.
const (
	CentralQueue DispatchPolicy = CentralQueueDispatch // one station, k·m servers (M/M/k semantics)
	RoundRobin   DispatchPolicy = lb.PolicyRoundRobin  // HAProxy default
	LeastConn    DispatchPolicy = lb.PolicyLeastConn   // HAProxy leastconn
	PowerOfTwo   DispatchPolicy = lb.PolicyPowerOfTwo
	RandomSplit  DispatchPolicy = lb.PolicyRandom
)

// EdgeConfig configures an edge deployment run.
type EdgeConfig struct {
	Sites          int
	ServersPerSite int
	Path           netem.Path
	Discipline     queue.Discipline
	Warmup         float64 // seconds of measurements to discard
	Seed           int64
	// QueueCap bounds each site's waiting queue (0 = unbounded);
	// overflowing requests are dropped and counted in Result.Dropped.
	QueueCap int
	// SlowdownFactor > 1 inflates service times at the edge relative to
	// the trace's reference values (resource-constrained edge servers,
	// §3.1.1). 0 or 1 means identical hardware.
	SlowdownFactor float64
	// JockeyThreshold enables §5.1 geographic load balancing: requests
	// arriving at a site whose load is at or beyond the threshold are
	// redirected to the least-loaded site at DetourRTT extra latency.
	JockeyThreshold int
	DetourRTT       float64
	// PerSiteServers optionally overrides ServersPerSite per site
	// (capacity matched to skew, Lemma 3.3 takeaway).
	PerSiteServers []int
	// TimelineBin > 0 additionally collects a latency timeline with the
	// given bin width (Figure 9).
	TimelineBin float64
	// Summary selects the latency-collection memory model: stats.Exact
	// (default) retains every observation for exact quantiles;
	// stats.Bounded keeps per-collector state independent of the
	// request count (running moments plus a mergeable log-bucket
	// sketch, quantiles within 2⁻⁷ ≈ 0.78% relative error), the right
	// choice for replays of millions of requests.
	Summary stats.Mode

	// probe, when set by tests, observes the event-calendar size at
	// every generated arrival.
	probe func(pending int)
}

// CloudConfig configures a cloud deployment run.
type CloudConfig struct {
	Servers     int
	Path        netem.Path
	Policy      DispatchPolicy
	Discipline  queue.Discipline
	Warmup      float64
	Seed        int64
	TimelineBin float64
	// QueueCap bounds the waiting queue (total for the central queue,
	// per server otherwise); 0 = unbounded.
	QueueCap int
	// Summary selects the latency-collection memory model; see
	// EdgeConfig.Summary.
	Summary stats.Mode

	probe func(pending int)
}

// SiteResult captures one edge site's measurements.
type SiteResult struct {
	Site        int
	EndToEnd    stats.Digest // client-observed latency, seconds
	Wait        stats.Digest // queueing delay at the site
	Utilization float64
	Arrivals    uint64
	MeanRate    float64
}

// Result captures one deployment run.
type Result struct {
	Label       string
	EndToEnd    stats.Digest // all requests, client-observed latency
	Wait        stats.Digest // all requests, queueing delay
	Sites       []SiteResult // per-site detail (len 1 for the cloud)
	Utilization float64      // load-weighted mean utilization
	Completed   uint64
	Duration    float64
	Timeline    *stats.TimeSeries // nil unless TimelineBin was set
	Redirected  uint64            // jockeyed requests (edge with geographic LB)
	Dropped     uint64            // requests rejected by bounded queues
	// Rejected counts requests refused by tier admission policies before
	// they reached any station (topology runs only; warmup included).
	Rejected uint64
}

// MeanLatency returns the mean end-to-end latency in seconds.
func (r *Result) MeanLatency() float64 { return r.EndToEnd.Mean() }

// P95Latency returns the 95th-percentile end-to-end latency in seconds.
func (r *Result) P95Latency() float64 { return r.EndToEnd.P95() }

// newResult builds a result whose digests follow the requested memory
// model; sizeHint pre-allocates exact samples to the trace length so
// retained-mode replays do not regrow from nil.
func newResult(label string, mode stats.Mode, sizeHint int) *Result {
	hint := 0
	if mode == stats.Exact {
		hint = sizeHint
	}
	return &Result{
		Label:    label,
		EndToEnd: stats.NewDigest(mode, hint),
		Wait:     stats.NewDigest(mode, hint),
	}
}

// newDigests returns n empty digests in the given mode.
func newDigests(mode stats.Mode, n int) []stats.Digest {
	out := make([]stats.Digest, n)
	if mode == stats.Bounded {
		for i := range out {
			out[i].SetBounded()
		}
	}
	return out
}

// feeder is the streaming heart of the topology executor: it holds
// exactly one pending trace record and re-arms a single "generate next
// arrival" event as records are consumed, so the event calendar never
// holds more than one future arrival regardless of trace length. The
// prep hook fills each request (network RTTs sampled at generation
// time in record order, service demand, entry tier), and pump/arrival
// events are scheduled front-priority (sim.AtFront) so they win
// exact-time ties against completions just as pre-scheduled arrivals
// would. Both together keep the random sequence and the event order —
// and therefore every result — identical to a run that materializes
// all arrivals up front.
type feeder struct {
	src  Source
	pool *queue.FreeList
	// prep fills the request's NetworkRTT, AuxRTT, ServiceTime and Tag
	// (entry tier) from the record; any sampling must draw in record
	// order.
	prep      func(rec RequestRecord, req *queue.Request)
	sink      queue.Sink
	admit     sim.PayloadEvent // routes a request at its arrival instant
	onDrained func()           // source exhausted (may fire before start returns)
	probe     func(pending int)

	pump    sim.Event // bound once; re-armed for every record
	pending RequestRecord
	nextID  uint64
	count   uint64 // records emitted so far
}

// start pulls the first record and arms the pump. Call before eng.Run.
func (f *feeder) start(e *sim.Engine) {
	f.pump = func(e *sim.Engine) { f.emit(e) }
	if rec, ok := f.src.Next(); ok {
		f.pending = rec
		e.AtFront(rec.Time, f.pump)
	} else if f.onDrained != nil {
		f.onDrained()
	}
}

// emit fires at the pending record's generation time: it builds the
// request from the free list, schedules its arrival rtt/2 later, and
// re-arms the pump for the next record.
func (f *feeder) emit(e *sim.Engine) {
	rec := f.pending
	req := f.pool.Get()
	f.nextID++
	f.count++
	req.ID = f.nextID
	req.Site = rec.Site
	req.Generated = rec.Time
	req.Done = f.sink
	f.prep(rec, req)
	e.AtPayloadFront(rec.Time+req.NetworkRTT/2, f.admit, req)
	if f.probe != nil {
		f.probe(e.Pending())
	}
	if nxt, ok := f.src.Next(); ok {
		if nxt.Time < rec.Time {
			panic(fmt.Sprintf("cluster: Source yielded time %v after %v", nxt.Time, rec.Time))
		}
		f.pending = nxt
		e.AtFront(nxt.Time, f.pump)
	} else if f.onDrained != nil {
		f.onDrained()
	}
}

// runDeployment is the topology-independent replay core: stream the
// source through the feeder, run the calendar dry, and close the
// stations' time-weighted metrics.
func runDeployment(eng *sim.Engine, f *feeder, res *Result, stations []*queue.Station) {
	f.start(eng)
	res.Duration = eng.Run()
	for _, s := range stations {
		s.Finish()
	}
}

// newStation builds a deployment station wired for the run: warmup,
// queue bound, summary mode, and the shared request free list.
func newStation(eng *sim.Engine, name string, servers int, disc queue.Discipline,
	queueCap int, warmup float64, mode stats.Mode, pool *queue.FreeList) *queue.Station {
	st := queue.NewStation(eng, name, servers, disc)
	st.QueueCap = queueCap
	st.SetWarmup(warmup)
	st.SetSummaryMode(mode)
	st.Recycle = pool
	return st
}

// mustRun executes a wrapper-built topology; construction errors there
// indicate invalid legacy configs, which the pre-topology runners
// reported by panicking.
func mustRun(src Source, topo Topology, opts Options) *TopologyResult {
	res, err := Run(src, topo, opts)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunEdge replays the trace through an edge deployment: each request
// incurs the edge network RTT and queues at its home site. It is a
// thin wrapper over Run with EdgeTopology.
func RunEdge(tr *WorkloadTrace, cfg EdgeConfig) *Result {
	if cfg.Sites <= 0 {
		cfg.Sites = tr.Sites
	}
	if cfg.Sites != tr.Sites {
		panic(fmt.Sprintf("cluster: edge config has %d sites, trace has %d", cfg.Sites, tr.Sites))
	}
	if cfg.ServersPerSite <= 0 {
		cfg.ServersPerSite = 1
	}
	res := mustRun(tr.Source(), EdgeTopology(cfg), Options{
		Warmup:      cfg.Warmup,
		Seed:        cfg.Seed,
		Summary:     cfg.Summary,
		TimelineBin: cfg.TimelineBin,
		SizeHint:    tr.Len(),
		Probe:       cfg.probe,
	})
	out := res.Result
	out.Label = "edge"
	out.Sites = res.Tiers[0].Sites
	return &out
}

// RunPaired replays the same trace through an edge and a cloud
// deployment concurrently and returns both results. Each run owns a
// private sim.Engine seeded from its own config and only reads the
// shared trace, so the pairing is bit-identical to running the two
// serially — the concurrency halves the wall-clock of every paired
// comparison (the shape of all the paper's experiments).
func RunPaired(tr *WorkloadTrace, ecfg EdgeConfig, ccfg CloudConfig) (edge, cloud *Result) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cloud = RunCloud(tr, ccfg)
	}()
	edge = RunEdge(tr, ecfg)
	wg.Wait()
	return edge, cloud
}

// RunCloud replays the trace through a cloud deployment: every request
// incurs the cloud RTT and is served by k·m servers behind the chosen
// dispatch policy. It is a thin wrapper over Run with CloudTopology.
func RunCloud(tr *WorkloadTrace, cfg CloudConfig) *Result {
	if cfg.Servers <= 0 {
		panic("cluster: cloud needs at least one server")
	}
	if cfg.Policy == "" {
		cfg.Policy = CentralQueue
	}
	if cfg.Policy != CentralQueue && !lb.Known(string(cfg.Policy)) {
		panic(fmt.Sprintf("cluster: unknown dispatch policy %q", cfg.Policy))
	}
	res := mustRun(tr.Source(), CloudTopology(cfg), Options{
		Warmup:      cfg.Warmup,
		Seed:        cfg.Seed,
		Summary:     cfg.Summary,
		TimelineBin: cfg.TimelineBin,
		SizeHint:    tr.Len(),
		Probe:       cfg.probe,
	})
	out := res.Result
	out.Label = "cloud"
	out.Sites = []SiteResult{{Site: -1, EndToEnd: out.EndToEnd, Wait: out.Wait, Utilization: out.Utilization}}
	return &out
}
