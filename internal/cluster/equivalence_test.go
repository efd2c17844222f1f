package cluster

// The streaming replay core must be observationally identical to the
// seed's materialized runner, which scheduled one arrival event and one
// Done closure per trace record before starting the clock. The
// materialized runners below are ports of that seed code, adapted to
// the Sink/Digest types, to test-local copies of the seed's config
// shapes, and to the per-site stream layout (siteNet, routeStream); the
// tests assert Run on the equivalent topology reproduces their results
// bit for bit on fixed traces.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/dist"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// edgeConfig is the seed's edge deployment config.
type edgeConfig struct {
	Sites           int
	ServersPerSite  int
	Path            netem.Path
	Discipline      queue.Discipline
	Warmup          float64
	Seed            int64
	QueueCap        int
	SlowdownFactor  float64
	JockeyThreshold int
	DetourRTT       float64
	PerSiteServers  []int
	TimelineBin     float64
}

// topology is the one-tier topology equivalent to the seed's edge.
func (c edgeConfig) topology() Topology {
	return Topology{Name: "edge", Tiers: []Tier{{
		Name: "edge", Sites: c.Sites, ServersPerSite: c.ServersPerSite,
		PerSiteServers: c.PerSiteServers, Path: c.Path, Discipline: c.Discipline,
		QueueCap: c.QueueCap, SlowdownFactor: c.SlowdownFactor,
		JockeyThreshold: c.JockeyThreshold, DetourRTT: c.DetourRTT,
	}}}
}

// cloudConfig is the seed's cloud deployment config; Policy is a
// Tier.Dispatch value ("" selects the central queue).
type cloudConfig struct {
	Servers     int
	Path        netem.Path
	Policy      string
	Discipline  queue.Discipline
	Warmup      float64
	Seed        int64
	TimelineBin float64
	QueueCap    int
}

// topology is the one-tier topology equivalent to the seed's cloud.
func (c cloudConfig) topology() Topology {
	t := CloudTier(c.Servers, c.Path, c.Policy)
	t.Discipline = c.Discipline
	t.QueueCap = c.QueueCap
	return Topology{Name: "cloud", Tiers: []Tier{t}}
}

// overflowConfig is the seed's hierarchical edge config: home sites
// forwarding to a pooled cloud backstop at OverflowThreshold.
type overflowConfig struct {
	Sites             int
	ServersPerSite    int
	EdgePath          netem.Path
	CloudPath         netem.Path
	CloudServers      int
	OverflowThreshold int
	Warmup            float64
	Seed              int64
}

// topology is the two-tier topology equivalent to the seed's overflow
// deployment: the backstop's RTT rides the spill edge as its detour.
func (c overflowConfig) topology() Topology {
	cloud := c.CloudPath
	return Topology{
		Name: "edge+overflow",
		Tiers: []Tier{
			{Name: "edge", Sites: c.Sites, ServersPerSite: c.ServersPerSite, Path: c.EdgePath},
			{Name: "cloud-backstop", Sites: 1, ServersPerSite: c.CloudServers, Path: c.CloudPath,
				Dispatch: CentralQueueDispatch},
		},
		Spills: []SpillEdge{{From: "edge", To: "cloud-backstop", Threshold: c.OverflowThreshold,
			DetourPath: &cloud}},
	}
}

// siteNet re-derives the oracles' per-site network streams under a run
// seed: site s draws substream 1+s of the seed, as in streams.go.
func siteNet(seed int64) func(site int) *rand.Rand {
	rngs := map[int]*rand.Rand{}
	return func(site int) *rand.Rand {
		if rngs[site] == nil {
			rngs[site] = dist.NewRand(dist.SeedAt(seed, 1+uint64(site)))
		}
		return rngs[site]
	}
}

// routeStream re-derives routing stream i under a run seed (tier i's
// dispatcher or jockeying stream): index i of substream 0.
func routeStream(seed int64, i int) *rand.Rand {
	return dist.NewRand(dist.SeedAt(dist.SeedAt(seed, 0), uint64(i)))
}

// oracleResult is the seed runners' result shape: the aggregate plus
// the per-site rows the seed's Result carried.
type oracleResult struct {
	Result
	Sites []SiteResult
}

// overflowOracle adds the seed overflow runner's edge/cloud split.
// Its aggregate EndToEnd merges EdgeOnly then CloudOnly, the tier-order
// merge harvest derives; InOrder is the seed's aggregate, added to in
// completion order.
type overflowOracle struct {
	oracleResult
	EdgeServed  uint64
	CloudServed uint64
	Overflowed  uint64
	EdgeOnly    stats.Digest
	CloudOnly   stats.Digest
	InOrder     stats.Digest
}

// replay runs tr through topo (Run sizes its digests to the trace
// length, as the seed runners did), failing the test on error.
func replay(t testing.TB, tr *WorkloadTrace, topo Topology, opts Options) *TopologyResult {
	t.Helper()
	res, err := Run(tr.Source(), topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The seed runners and the Run options equivalent to their configs
// collect with exact digests, the reference the bounded sketch is
// checked against: equal quantiles then mean equal observations.

// exactResult is an oracle's empty result, with exact digests.
func exactResult(label string) Result {
	return Result{Label: label, EndToEnd: stats.NewDigest(stats.Exact, 0), Wait: stats.NewDigest(stats.Exact, 0)}
}

// options are the Run options equivalent to the seed edge config.
func (c edgeConfig) options() Options {
	return Options{Warmup: c.Warmup, Seed: c.Seed, Summary: stats.Exact, TimelineBin: c.TimelineBin}
}

// options are the Run options equivalent to the seed cloud config.
func (c cloudConfig) options() Options {
	return Options{Warmup: c.Warmup, Seed: c.Seed, Summary: stats.Exact, TimelineBin: c.TimelineBin}
}

// options are the Run options equivalent to the seed overflow config;
// its oracle reports no per-site latency.
func (c overflowConfig) options() Options {
	return Options{Warmup: c.Warmup, Seed: c.Seed, Summary: stats.Exact, NoPerSiteLatency: true}
}

// run replays tr through the equivalent edge topology.
func (c edgeConfig) run(t testing.TB, tr *WorkloadTrace) *TopologyResult {
	return replay(t, tr, c.topology(), c.options())
}

// run replays tr through the equivalent cloud topology.
func (c cloudConfig) run(t testing.TB, tr *WorkloadTrace) *TopologyResult {
	return replay(t, tr, c.topology(), c.options())
}

// run replays tr through the equivalent overflow topology.
func (c overflowConfig) run(t testing.TB, tr *WorkloadTrace) *TopologyResult {
	return replay(t, tr, c.topology(), c.options())
}

// edgeView is a home-routed entry tier's run in the oracle's shape.
func edgeView(res *TopologyResult) *oracleResult {
	return &oracleResult{Result: res.Result, Sites: res.Tiers[0].Sites}
}

// materializedRunEdge is the seed's RunEdge: full trace expansion into
// per-request events and closures up front.
func materializedRunEdge(tr *WorkloadTrace, cfg edgeConfig) *oracleResult {
	if cfg.Sites <= 0 {
		cfg.Sites = tr.Sites
	}
	if cfg.ServersPerSite <= 0 {
		cfg.ServersPerSite = 1
	}
	eng := sim.NewEngine(cfg.Seed)
	netRng := siteNet(cfg.Seed)

	stations := make([]*queue.Station, cfg.Sites)
	servers := make([]queue.Server, cfg.Sites)
	for i := range stations {
		c := cfg.ServersPerSite
		if cfg.PerSiteServers != nil {
			c = cfg.PerSiteServers[i]
		}
		stations[i] = queue.NewStation(eng, fmt.Sprintf("edge-%d", i), c, cfg.Discipline)
		stations[i].QueueCap = cfg.QueueCap
		stations[i].SetWarmup(cfg.Warmup)
		stations[i].SetSummaryMode(stats.Exact)
		servers[i] = stations[i]
	}

	var geo *lb.Geographic
	if cfg.JockeyThreshold > 0 {
		geo = lb.NewGeographic(servers, cfg.JockeyThreshold, cfg.DetourRTT, routeStream(cfg.Seed, 0))
	}

	res := &oracleResult{Result: exactResult("edge")}
	if cfg.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, cfg.TimelineBin)
	}
	perSiteE2E := newDigests(stats.Exact, cfg.Sites)

	slow := cfg.SlowdownFactor
	if slow <= 0 {
		slow = 1
	}

	var nextID uint64
	for _, rec := range tr.Records {
		rtt := cfg.Path.Sample(netRng(rec.Site))
		nextID++
		req := &queue.Request{
			ID:          nextID,
			Site:        rec.Site,
			ServiceTime: rec.ServiceTime * slow,
			NetworkRTT:  rtt,
			Generated:   rec.Time,
			Done: queue.DoneFunc(func(e *sim.Engine, r *queue.Request) {
				if r.Departure < cfg.Warmup {
					return
				}
				if r.Dropped {
					res.Dropped++
					return
				}
				e2e := r.EndToEnd()
				res.EndToEnd.Add(e2e)
				perSiteE2E[r.Site].Add(e2e)
				res.Completed++
				if res.Timeline != nil {
					res.Timeline.Add(r.Generated, e2e)
				}
			}),
		}
		arriveAt := rec.Time + rtt/2
		eng.At(arriveAt, func(e *sim.Engine) {
			if geo != nil {
				geo.Dispatch(req)
			} else {
				stations[req.Site].Arrive(req)
			}
		})
	}

	res.Duration = eng.Run()
	for _, s := range stations {
		s.Finish()
	}
	if geo != nil {
		res.Redirected = geo.Redirected
	}

	var busySum, capSum float64
	for i, s := range stations {
		m := s.Metrics()
		res.Wait.Merge(&m.Wait)
		res.Sites = append(res.Sites, SiteResult{
			Site:        i,
			EndToEnd:    perSiteE2E[i],
			Wait:        m.Wait,
			Utilization: m.Utilization(s.Servers),
			Arrivals:    s.TotalArrivals(),
			MeanRate:    m.Arrivals.Rate(),
		})
		busySum += m.Busy.Average()
		capSum += float64(s.Servers)
	}
	if capSum > 0 {
		res.Utilization = busySum / capSum
	}
	return res
}

// materializedRunCloud is the seed's RunCloud. The seed also reported
// one per-site row repeating the aggregate; the aggregate comparison
// already covers it, so the port drops it.
func materializedRunCloud(tr *WorkloadTrace, cfg cloudConfig) *oracleResult {
	if cfg.Policy == "" {
		cfg.Policy = CentralQueueDispatch
	}
	eng := sim.NewEngine(cfg.Seed)
	netRng := siteNet(cfg.Seed)

	var stations []*queue.Station
	var dispatch func(r *queue.Request)
	switch cfg.Policy {
	case CentralQueueDispatch:
		st := queue.NewStation(eng, "cloud", cfg.Servers, cfg.Discipline)
		st.QueueCap = cfg.QueueCap
		st.SetWarmup(cfg.Warmup)
		st.SetSummaryMode(stats.Exact)
		stations = []*queue.Station{st}
		dispatch = st.Arrive
	default:
		stations = make([]*queue.Station, cfg.Servers)
		servers := make([]queue.Server, cfg.Servers)
		for i := range stations {
			stations[i] = queue.NewStation(eng, fmt.Sprintf("cloud-%d", i), 1, cfg.Discipline)
			stations[i].QueueCap = cfg.QueueCap
			stations[i].SetWarmup(cfg.Warmup)
			stations[i].SetSummaryMode(stats.Exact)
			servers[i] = stations[i]
		}
		var d lb.Dispatcher
		switch cfg.Policy {
		case lb.PolicyRoundRobin:
			d = lb.NewRoundRobin(servers)
		case lb.PolicyLeastConn:
			d = lb.NewLeastConnections(servers, routeStream(cfg.Seed, 0))
		case lb.PolicyPowerOfTwo:
			d = lb.NewPowerOfTwo(servers, routeStream(cfg.Seed, 0))
		case lb.PolicyRandom:
			d = lb.NewRandom(servers, routeStream(cfg.Seed, 0))
		}
		dispatch = d.Dispatch
	}

	res := &oracleResult{Result: exactResult("cloud")}
	if cfg.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, cfg.TimelineBin)
	}

	var nextID uint64
	for _, rec := range tr.Records {
		rtt := cfg.Path.Sample(netRng(rec.Site))
		nextID++
		req := &queue.Request{
			ID:          nextID,
			Site:        -1,
			ServiceTime: rec.ServiceTime,
			NetworkRTT:  rtt,
			Generated:   rec.Time,
			Done: queue.DoneFunc(func(e *sim.Engine, r *queue.Request) {
				if r.Departure < cfg.Warmup {
					return
				}
				if r.Dropped {
					res.Dropped++
					return
				}
				e2e := r.EndToEnd()
				res.EndToEnd.Add(e2e)
				res.Completed++
				if res.Timeline != nil {
					res.Timeline.Add(r.Generated, e2e)
				}
			}),
		}
		eng.At(rec.Time+rtt/2, func(e *sim.Engine) { dispatch(req) })
	}

	res.Duration = eng.Run()
	var busySum, capSum float64
	for _, s := range stations {
		s.Finish()
		m := s.Metrics()
		res.Wait.Merge(&m.Wait)
		busySum += m.Busy.Average()
		capSum += float64(s.Servers)
	}
	if capSum > 0 {
		res.Utilization = busySum / capSum
	}
	return res
}

// materializedRunOverflow is the seed's RunEdgeWithOverflow, run as
// overflowConfig.options() asks: without per-site latency, so the edge
// tier keeps one wait digest, booked in completion order, and the site
// rows carry no wait digest.
func materializedRunOverflow(tr *WorkloadTrace, cfg overflowConfig) *overflowOracle {
	if cfg.Sites <= 0 {
		cfg.Sites = tr.Sites
	}
	if cfg.ServersPerSite <= 0 {
		cfg.ServersPerSite = 1
	}
	eng := sim.NewEngine(cfg.Seed)
	netRng := siteNet(cfg.Seed)

	sites := make([]*queue.Station, cfg.Sites)
	for i := range sites {
		sites[i] = queue.NewStation(eng, fmt.Sprintf("edge-%d", i), cfg.ServersPerSite, queue.FCFS)
		sites[i].SetWarmup(cfg.Warmup)
		sites[i].SetSummaryMode(stats.Exact)
	}
	cloud := queue.NewStation(eng, "cloud-backstop", cfg.CloudServers, queue.FCFS)
	cloud.SetWarmup(cfg.Warmup)
	cloud.SetSummaryMode(stats.Exact)

	res := &overflowOracle{oracleResult: oracleResult{Result: exactResult("edge+overflow")},
		EdgeOnly: stats.NewDigest(stats.Exact, 0), CloudOnly: stats.NewDigest(stats.Exact, 0),
		InOrder: stats.NewDigest(stats.Exact, 0)}
	edgeWait := stats.NewDigest(stats.Exact, 0)

	var nextID uint64
	for _, rec := range tr.Records {
		edgeRTT := cfg.EdgePath.Sample(netRng(rec.Site))
		cloudRTT := cfg.CloudPath.Sample(netRng(rec.Site))
		nextID++
		req := &queue.Request{
			ID:          nextID,
			Site:        rec.Site,
			ServiceTime: rec.ServiceTime,
			Generated:   rec.Time,
		}
		req.NetworkRTT = edgeRTT
		overflowed := false
		req.Done = queue.DoneFunc(func(e *sim.Engine, r *queue.Request) {
			if r.Departure < cfg.Warmup {
				return
			}
			e2e := r.EndToEnd()
			res.InOrder.Add(e2e)
			res.Completed++
			if overflowed {
				res.CloudServed++
				res.CloudOnly.Add(e2e)
			} else {
				res.EdgeServed++
				res.EdgeOnly.Add(e2e)
				edgeWait.Add(r.Wait())
			}
		})
		eng.At(rec.Time+edgeRTT/2, func(e *sim.Engine) {
			home := sites[req.Site]
			if home.Load() >= cfg.OverflowThreshold {
				overflowed = true
				res.Overflowed++
				req.NetworkRTT = edgeRTT + cloudRTT
				e.After(cloudRTT/2, func(*sim.Engine) { cloud.Arrive(req) })
				return
			}
			home.Arrive(req)
		})
	}

	res.Duration = eng.Run()
	res.EndToEnd = stats.Merged(&res.EdgeOnly, &res.CloudOnly)
	var busySum, capSum float64
	for i, s := range sites {
		s.Finish()
		m := s.Metrics()
		res.Sites = append(res.Sites, SiteResult{
			Site:        i,
			Utilization: m.Utilization(s.Servers),
			Arrivals:    s.TotalArrivals(),
			MeanRate:    m.Arrivals.Rate(),
		})
		busySum += m.Busy.Average()
		capSum += float64(s.Servers)
	}
	cloud.Finish()
	res.Wait = stats.Merged(&edgeWait, &cloud.Metrics().Wait)
	if capSum > 0 {
		res.Utilization = busySum / capSum
	}
	return res
}

// compareResults asserts bit-identical aggregate results and per-site
// rows.
func compareResults(t *testing.T, name string, want, got *oracleResult) {
	t.Helper()
	if got.Completed != want.Completed {
		t.Errorf("%s: Completed %d != materialized %d", name, got.Completed, want.Completed)
	}
	if got.Dropped != want.Dropped {
		t.Errorf("%s: Dropped %d != materialized %d", name, got.Dropped, want.Dropped)
	}
	if got.Redirected != want.Redirected {
		t.Errorf("%s: Redirected %d != materialized %d", name, got.Redirected, want.Redirected)
	}
	if got.EndToEnd.N() != want.EndToEnd.N() {
		t.Errorf("%s: N %d != materialized %d", name, got.EndToEnd.N(), want.EndToEnd.N())
	}
	if got.EndToEnd.Mean() != want.EndToEnd.Mean() {
		t.Errorf("%s: mean %v != materialized %v", name, got.EndToEnd.Mean(), want.EndToEnd.Mean())
	}
	if got.EndToEnd.P95() != want.EndToEnd.P95() {
		t.Errorf("%s: p95 %v != materialized %v", name, got.EndToEnd.P95(), want.EndToEnd.P95())
	}
	if got.Wait.Mean() != want.Wait.Mean() {
		t.Errorf("%s: wait mean %v != materialized %v", name, got.Wait.Mean(), want.Wait.Mean())
	}
	if got.Duration != want.Duration {
		t.Errorf("%s: duration %v != materialized %v", name, got.Duration, want.Duration)
	}
	if got.Utilization != want.Utilization {
		t.Errorf("%s: utilization %v != materialized %v", name, got.Utilization, want.Utilization)
	}
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("%s: %d site rows != materialized %d", name, len(got.Sites), len(want.Sites))
	}
	for i := range want.Sites {
		w, g := want.Sites[i], got.Sites[i]
		if g.Arrivals != w.Arrivals || g.Utilization != w.Utilization ||
			g.Wait.Mean() != w.Wait.Mean() || g.EndToEnd.Mean() != w.EndToEnd.Mean() {
			t.Errorf("%s: site %d diverges: arrivals %d/%d util %v/%v",
				name, i, g.Arrivals, w.Arrivals, g.Utilization, w.Utilization)
		}
	}
}

func equivalenceTrace(seed int64) *WorkloadTrace {
	return Generate(GenSpec{Sites: 5, Duration: 400, PerSiteRate: 10, Seed: seed})
}

func TestStreamingEdgeMatchesMaterialized(t *testing.T) {
	tr := equivalenceTrace(101)
	sc, _ := netem.ScenarioByName("typical-25ms")
	cfgs := map[string]edgeConfig{
		"plain": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7},
		"geo-jockey": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			JockeyThreshold: 3, DetourRTT: 0.005},
		"bounded-queue": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			QueueCap: 2},
		"per-site-slowdown": {Sites: 5, Path: sc.Edge, Warmup: 40, Seed: 7,
			PerSiteServers: []int{2, 1, 1, 1, 2}, SlowdownFactor: 1.2},
		"timeline-lifo": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			Discipline: queue.LIFO, TimelineBin: 30},
		"sjf": {Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 7,
			Discipline: queue.SJF},
	}
	for name, cfg := range cfgs {
		want := materializedRunEdge(tr, cfg)
		got := cfg.run(t, tr)
		compareResults(t, "edge/"+name, want, edgeView(got))
	}
}

func TestStreamingCloudMatchesMaterialized(t *testing.T) {
	tr := equivalenceTrace(102)
	sc, _ := netem.ScenarioByName("typical-25ms")
	cloudView := func(cfg cloudConfig) *oracleResult {
		return &oracleResult{Result: cfg.run(t, tr).Result}
	}
	policies := []string{CentralQueueDispatch, lb.PolicyRoundRobin, lb.PolicyLeastConn,
		lb.PolicyPowerOfTwo, lb.PolicyRandom}
	for _, pol := range policies {
		cfg := cloudConfig{Servers: 5, Path: sc.Cloud, Policy: pol, Warmup: 40, Seed: 9}
		compareResults(t, "cloud/"+pol, materializedRunCloud(tr, cfg), cloudView(cfg))
	}
	// Bounded queues on the central station and on per-server stations.
	cfg := cloudConfig{Servers: 3, Path: sc.Cloud, Warmup: 40, Seed: 9, QueueCap: 4}
	compareResults(t, "cloud/central-capped", materializedRunCloud(tr, cfg), cloudView(cfg))
	cfg.Policy, cfg.QueueCap = lb.PolicyLeastConn, 1
	compareResults(t, "cloud/least-conn-capped", materializedRunCloud(tr, cfg), cloudView(cfg))
}

func TestStreamingOverflowMatchesMaterialized(t *testing.T) {
	// A hot first site so the overflow path actually engages.
	procs := siteProcs([]float64{18, 5, 5, 3, 3})
	tr := Generate(GenSpec{Sites: 5, Duration: 400, Seed: 103, Arrivals: procs})
	sc, _ := netem.ScenarioByName("typical-25ms")
	cfg := overflowConfig{
		Sites: 5, ServersPerSite: 1,
		EdgePath: sc.Edge, CloudPath: sc.Cloud,
		CloudServers: 5, OverflowThreshold: 3,
		Warmup: 40, Seed: 11,
	}
	want := materializedRunOverflow(tr, cfg)
	got := cfg.run(t, tr)
	compareResults(t, "overflow", &want.oracleResult, overflowView(got))
	edge, cloud := got.Tiers[0], got.Tiers[1]
	if edge.Spilled == 0 {
		t.Fatal("overflow path never engaged; test is vacuous")
	}
	if edge.Spilled != want.Overflowed || cloud.Served != want.CloudServed ||
		edge.Served != want.EdgeServed {
		t.Errorf("overflow split diverges: overflowed %d/%d cloud %d/%d edge %d/%d",
			edge.Spilled, want.Overflowed, cloud.Served, want.CloudServed,
			edge.Served, want.EdgeServed)
	}
	if cloud.EndToEnd.Mean() != want.CloudOnly.Mean() || edge.EndToEnd.Mean() != want.EdgeOnly.Mean() {
		t.Error("overflow per-path latency digests diverge")
	}
	// The seed's completion-order aggregate holds the same observations:
	// the same count, quantiles and mean, whatever the order of adds.
	in, merged := &want.InOrder, &want.EndToEnd
	if in.N() != merged.N() {
		t.Fatalf("completion-order aggregate holds %d, tier merge %d", in.N(), merged.N())
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		if in.Quantile(q) != merged.Quantile(q) {
			t.Errorf("q=%v: completion order %v, tier merge %v", q, in.Quantile(q), merged.Quantile(q))
		}
	}
	if in.Mean() != merged.Mean() {
		t.Errorf("completion-order mean %v, tier merge %v", in.Mean(), merged.Mean())
	}
}

// overflowView is an overflow run in the oracle's shape: the seed
// reported the edge tier's utilization only, since the backstop
// absorbs overflow.
func overflowView(res *TopologyResult) *oracleResult {
	v := edgeView(res)
	v.Utilization = res.Tiers[0].Utilization
	return v
}

// TestStreamingTiedEventsMatchMaterialized: with deterministic RTTs and
// integer-coincident times, arrivals tie exactly with completions. The
// materialized runner pre-schedules arrivals (low seqs), so they win
// those ties; the streaming feeder must reproduce that via front-
// priority scheduling. Regression test: a t=1 arrival must see the home
// site still busy (Load()=1 from the t=0 request completing at exactly
// t=1) and overflow, not observe the freed server.
func TestStreamingTiedEventsMatchMaterialized(t *testing.T) {
	tr := FromRecords([]RequestRecord{
		{Time: 0, Site: 0, ServiceTime: 1},
		{Time: 1, Site: 0, ServiceTime: 1},
	}, 1)
	cfg := overflowConfig{
		Sites: 1, ServersPerSite: 1,
		EdgePath: netem.Constant("zero", 0), CloudPath: netem.Constant("zero", 0),
		CloudServers: 1, OverflowThreshold: 1, Seed: 1,
	}
	want := materializedRunOverflow(tr, cfg)
	got := cfg.run(t, tr)
	if want.Overflowed != 1 {
		t.Fatalf("materialized Overflowed = %d, scenario should overflow the tied arrival", want.Overflowed)
	}
	if got.Tiers[0].Spilled != want.Overflowed {
		t.Errorf("streaming Overflowed = %d, materialized = %d: tied arrival lost its FIFO win",
			got.Tiers[0].Spilled, want.Overflowed)
	}
	compareResults(t, "overflow/tied", &want.oracleResult, overflowView(got))

	// Same property through the edge path: deterministic service and
	// zero RTT make every completion tie with the next arrival.
	recs := make([]RequestRecord, 50)
	for i := range recs {
		recs[i] = RequestRecord{Time: float64(i), Site: 0, ServiceTime: 1}
	}
	dtr := FromRecords(recs, 1)
	ecfg := edgeConfig{Sites: 1, ServersPerSite: 1, Path: netem.Constant("zero", 0),
		Seed: 2, QueueCap: 1}
	compareResults(t, "edge/tied", materializedRunEdge(dtr, ecfg), edgeView(ecfg.run(t, dtr)))
}

// TestScalerTierMatchesLegacyReactiveConfig: a Tier carrying a
// reactive Spec must reproduce the seed's direct autoscaled runner bit
// for bit, telemetry included, whether the spec arrives via Go
// construction or a JSON "scaler" block.
func TestScalerTierMatchesLegacyReactiveConfig(t *testing.T) {
	procs := siteProcs([]float64{24, 9, 7, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 400, Seed: 109, Arrivals: procs})
	cfg := edgeConfig{Sites: 5, ServersPerSite: 1, Path: netem.Jittered("edge-1ms", 0.001, 0.0002),
		Warmup: 40, Seed: 19}
	asSpec := autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 4, UpThreshold: 1.5,
		DownThreshold: 0.2, Cooldown: 6}
	want := directRunEdgeAutoscaled(t, tr, cfg, asSpec)
	if want.ScaleUps == 0 {
		t.Fatal("controller never scaled; test is vacuous")
	}
	opts := cfg.options()
	opts.NoPerSiteLatency = true
	checkAutoscaled(t, "scaler-spec", want, replay(t, tr, autoscaledTopology(cfg, asSpec), opts))

	// The same tier declared through the JSON scaler block.
	spec := `{"name":"edge+autoscale","tiers":[{"name":"edge","sites":5,"servers":1,
		"rttMs":1,"jitterMs":0.2,
		"scaler":{"policy":"reactive","intervalS":2,"min":1,"max":4,"up":1.5,"down":0.2,"cooldownS":6}}]}`
	fromJSON, err := ParseTopology([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	checkAutoscaled(t, "scaler-json", want, replay(t, tr, fromJSON, opts))
}

// TestBoundedSummaryConsistent: the default bounded memory model must
// agree with the exact reference on counts and moments (both modes'
// moments are the same function of the observations) and approximate
// its quantiles.
func TestBoundedSummaryConsistent(t *testing.T) {
	tr := equivalenceTrace(104)
	sc, _ := netem.ScenarioByName("typical-25ms")
	base := edgeConfig{Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 40, Seed: 13}
	exact := base.run(t, tr)
	got := replay(t, tr, base.topology(), Options{Warmup: base.Warmup, Seed: base.Seed})
	if got.EndToEnd.Mode() != stats.Bounded || exact.EndToEnd.Mode() != stats.Exact {
		t.Fatalf("modes: default run %s, reference %s", got.EndToEnd.Mode(), exact.EndToEnd.Mode())
	}
	if got.Completed != exact.Completed || got.EndToEnd.N() != exact.EndToEnd.N() {
		t.Fatalf("bounded run lost observations: %d vs %d", got.Completed, exact.Completed)
	}
	if got.EndToEnd.Mean() != exact.EndToEnd.Mean() {
		t.Errorf("bounded mean %v != exact %v", got.EndToEnd.Mean(), exact.EndToEnd.Mean())
	}
	if got.EndToEnd.Max() != exact.EndToEnd.Quantile(1) {
		t.Errorf("bounded max %v != exact %v", got.EndToEnd.Max(), exact.EndToEnd.Quantile(1))
	}
	ep, bp := exact.P95Latency(), got.P95Latency()
	if rel := abs(bp-ep) / ep; rel > 0.05 {
		t.Errorf("bounded p95 %v vs exact %v (rel err %.3f)", bp, ep, rel)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
