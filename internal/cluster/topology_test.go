package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/autoscale"
	"repro/internal/netem"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// edgePath returns the 1 ms edge path used across topology tests.
func edgePath() netem.Path { return netem.Jittered("edge-1ms", 0.001, 0.0002) }

func cloudPath() netem.Path { return netem.Jittered("cloud-25ms", 0.025, 0.003) }

func TestTopologyValidate(t *testing.T) {
	edge := Tier{Name: "edge", Sites: 5, Path: edgePath()}
	cloud := Tier{Name: "cloud", Sites: 1, ServersPerSite: 5, Dispatch: CentralQueueDispatch, Path: cloudPath()}
	cases := map[string]Topology{
		"no tiers":        {},
		"unnamed tier":    {Tiers: []Tier{{Sites: 1}}},
		"duplicate names": {Tiers: []Tier{edge, edge}},
		"zero sites":      {Tiers: []Tier{{Name: "edge"}}},
		"bad dispatch":    {Tiers: []Tier{{Name: "x", Sites: 1, Dispatch: "nope"}}},
		"per-site servers mismatch": {
			Tiers: []Tier{{Name: "edge", Sites: 3, PerSiteServers: []int{1, 1}}},
		},
		"per-site paths on dispatcher tier": {
			Tiers: []Tier{{Name: "x", Sites: 2, Dispatch: "random",
				PerSitePaths: []netem.Path{edgePath(), edgePath()}}},
		},
		"jockey on dispatcher tier": {
			Tiers: []Tier{{Name: "x", Sites: 2, Dispatch: "random", JockeyThreshold: 2}},
		},
		"home tiers disagree on sites": {
			Tiers: []Tier{edge, {Name: "edge2", Sites: 3}},
		},
		"spill from unknown tier": {
			Tiers:  []Tier{edge, cloud},
			Spills: []SpillEdge{{From: "nope", To: "cloud", Threshold: 1}},
		},
		"spill to unknown tier": {
			Tiers:  []Tier{edge, cloud},
			Spills: []SpillEdge{{From: "edge", To: "nope", Threshold: 1}},
		},
		"self spill": {
			Tiers:  []Tier{edge},
			Spills: []SpillEdge{{From: "edge", To: "edge", Threshold: 1}},
		},
		"nonpositive threshold": {
			Tiers:  []Tier{edge, cloud},
			Spills: []SpillEdge{{From: "edge", To: "cloud"}},
		},
		"two spills from one tier": {
			Tiers: []Tier{edge, cloud, {Name: "c2", Sites: 1, Dispatch: CentralQueueDispatch}},
			Spills: []SpillEdge{
				{From: "edge", To: "cloud", Threshold: 1},
				{From: "edge", To: "c2", Threshold: 2},
			},
		},
		"spill cycle": {
			Tiers: []Tier{cloud, {Name: "c2", Sites: 1, Dispatch: CentralQueueDispatch}},
			Spills: []SpillEdge{
				{From: "cloud", To: "c2", Threshold: 1},
				{From: "c2", To: "cloud", Threshold: 1},
			},
		},
		"class pins to unknown tier": {
			Tiers:   []Tier{edge},
			Classes: []ClassRule{{Name: "x", Tier: "nope"}},
		},
		"class fraction out of range": {
			Tiers:   []Tier{edge, cloud},
			Classes: []ClassRule{{Name: "x", Tier: "cloud", Fraction: 1.5}},
		},
		// NaN fails every ordered comparison, so "< 0 || > 1" alone
		// accepted it — and a NaN fraction silently became an
		// unconditional match in classify. Must be rejected explicitly.
		"class fraction NaN": {
			Tiers:   []Tier{edge, cloud},
			Classes: []ClassRule{{Name: "x", Tier: "cloud", Fraction: math.NaN()}},
		},
		"negative queue cap": {
			Tiers: []Tier{{Name: "edge", Sites: 5, QueueCap: -1}},
		},
		"NaN slowdown": {
			Tiers: []Tier{{Name: "edge", Sites: 5, SlowdownFactor: math.NaN()}},
		},
		"Inf slowdown": {
			Tiers: []Tier{{Name: "edge", Sites: 5, SlowdownFactor: math.Inf(1)}},
		},
		"NaN price": {
			Tiers: []Tier{{Name: "edge", Sites: 5, PricePerServerHour: math.NaN()}},
		},
		"negative price": {
			Tiers: []Tier{{Name: "edge", Sites: 5, PricePerServerHour: -0.1}},
		},
		"unknown admission policy": {
			Tiers: []Tier{{Name: "edge", Sites: 5,
				Admission: &admit.Spec{Policy: "leaky-bucket"}}},
		},
		// A zero-value Path has no RTT distribution to sample, so Run
		// would dereference nil on the first request.
		"entry tier without a path": {
			Tiers: []Tier{{Name: "edge", Sites: 5}},
		},
		"class target without a path": {
			Tiers:   []Tier{edge, {Name: "cloud", Sites: 1, Dispatch: CentralQueueDispatch}},
			Classes: []ClassRule{{Name: "x", Sites: []int{0}, Tier: "cloud"}},
		},
		"nil per-site path": {
			Tiers: []Tier{{Name: "edge", Sites: 2, Path: edgePath(),
				PerSitePaths: []netem.Path{edgePath(), {}}}},
		},
		"NaN admission rate": {
			Tiers: []Tier{{Name: "edge", Sites: 5,
				Admission: &admit.Spec{Policy: admit.TokenBucket, Rate: math.NaN()}}},
		},
	}
	for name, topo := range cases {
		if err := topo.normalized().Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid topology", name)
		}
	}
	good := Topology{
		Tiers:  []Tier{edge, cloud},
		Spills: []SpillEdge{{From: "edge", To: "cloud", Threshold: 3}},
		Classes: []ClassRule{
			{Name: "pinned", Sites: []int{0}, Tier: "cloud"},
		},
	}
	if err := good.normalized().Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

// autoscaleOracle adds the seed autoscaled runner's controller
// telemetry to its result.
type autoscaleOracle struct {
	oracleResult
	ScaleUps     int
	ScaleDowns   int
	PeakServers  int
	FinalPerSite []int
	Events       []autoscale.Event
}

// directRunEdgeAutoscaled is the pre-topology RunEdgeAutoscaled,
// ported verbatim onto the feeder API: stations built by hand, the
// controller stopped on drain, results assembled inline. Run on a
// home-routed tier carrying the equivalent reactive scaler must
// reproduce it bit for bit.
func directRunEdgeAutoscaled(t *testing.T, tr *WorkloadTrace, cfg edgeConfig, asSpec autoscale.Spec) *autoscaleOracle {
	if cfg.Sites <= 0 {
		cfg.Sites = tr.Sites
	}
	if cfg.ServersPerSite <= 0 {
		cfg.ServersPerSite = 1
	}
	eng := sim.NewEngine(cfg.Seed)
	netRng := siteNet(cfg.Seed)
	pool := &queue.FreeList{}

	stations := make([]*queue.Station, cfg.Sites)
	for i := range stations {
		stations[i] = newStation(eng, fmt.Sprintf("edge-%d", i), cfg.ServersPerSite,
			cfg.Discipline, 0, cfg.Warmup, cfg.Summary, pool)
	}
	ctrl, err := autoscale.New(asSpec, eng, stations)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()

	res := &autoscaleOracle{oracleResult: oracleResult{Result: *newResult("edge+autoscale", cfg.Summary)}}
	if cfg.TimelineBin > 0 {
		res.Timeline = stats.NewTimeSeries(0, cfg.TimelineBin)
	}

	var drained bool
	var consumed uint64
	var f *feeder
	maybeStop := func() {
		if drained && consumed == f.count {
			ctrl.Stop()
		}
	}
	sink := queue.DoneFunc(func(e *sim.Engine, r *queue.Request) {
		consumed++
		maybeStop()
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
	})
	f = &feeder{
		src:  tr.Source(),
		pool: pool,
		sink: sink,
		prep: func(rec RequestRecord, req *queue.Request) {
			req.NetworkRTT = cfg.Path.Sample(netRng(rec.Site))
			req.ServiceTime = rec.ServiceTime
		},
		admit: func(e *sim.Engine, p any) {
			req := p.(*queue.Request)
			stations[req.Site].Arrive(req)
		},
		onDrained: func() {
			drained = true
			maybeStop()
		},
	}
	runDeployment(eng, f, &res.Result, stations)
	ctrl.Stop()

	var busySum, capSum float64
	for i, s := range stations {
		m := s.Metrics()
		res.Wait.Merge(&m.Wait)
		res.Sites = append(res.Sites, SiteResult{
			Site:        i,
			Wait:        m.Wait,
			Utilization: m.Utilization(s.Servers),
			Arrivals:    s.TotalArrivals(),
			MeanRate:    m.Arrivals.Rate(),
		})
		res.FinalPerSite = append(res.FinalPerSite, s.Servers)
		busySum += m.Busy.Average()
		capSum += float64(s.Servers)
	}
	if capSum > 0 {
		res.Utilization = busySum / capSum
	}
	tel := ctrl.Telemetry(res.Duration)
	res.ScaleUps = tel.ScaleUps
	res.ScaleDowns = tel.ScaleDowns
	res.PeakServers = tel.PeakServers
	res.Events = ctrl.EventLog()
	return res
}

// autoscaledTopology is the one-tier edge equivalent to the seed's
// autoscaled runner: home-routed sites under the reactive controller.
func autoscaledTopology(cfg edgeConfig, asSpec autoscale.Spec) Topology {
	topo := cfg.topology()
	topo.Name = "edge+autoscale"
	topo.Tiers[0].Scaler = &asSpec
	return topo
}

// checkAutoscaled asserts an autoscaled run reproduces the direct
// runner bit for bit, controller telemetry included. The seed's
// per-site rows carried queueing metrics only, so res must come from a
// run with NoPerSiteLatency.
func checkAutoscaled(t *testing.T, name string, want *autoscaleOracle, res *TopologyResult) {
	t.Helper()
	compareResults(t, name, &want.oracleResult, edgeView(res))
	tier := res.Tiers[0]
	if tier.ScalerPolicy != autoscale.PolicyReactive {
		t.Errorf("%s: scaler policy = %q, want reactive", name, tier.ScalerPolicy)
	}
	if tier.ScaleUps != want.ScaleUps || tier.ScaleDowns != want.ScaleDowns ||
		tier.PeakServers != want.PeakServers {
		t.Errorf("%s: telemetry diverges: ups %d/%d downs %d/%d peak %d/%d", name,
			tier.ScaleUps, want.ScaleUps, tier.ScaleDowns, want.ScaleDowns,
			tier.PeakServers, want.PeakServers)
	}
	if len(tier.Events) != len(want.Events) {
		t.Fatalf("%s: %d events != direct %d", name, len(tier.Events), len(want.Events))
	}
	for i := range want.Events {
		if tier.Events[i] != want.Events[i] {
			t.Errorf("%s: event %d diverges: %+v vs %+v", name, i, tier.Events[i], want.Events[i])
		}
	}
	for i := range want.FinalPerSite {
		if tier.FinalServers[i] != want.FinalPerSite[i] {
			t.Errorf("%s: final servers at site %d: %d vs %d", name, i, tier.FinalServers[i], want.FinalPerSite[i])
		}
	}
}

func TestAutoscaledTopologyMatchesDirect(t *testing.T) {
	procs := siteProcs([]float64{22, 8, 8, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 400, Seed: 107, Arrivals: procs})
	cfg := edgeConfig{Sites: 5, ServersPerSite: 1, Path: edgePath(), Warmup: 40, Seed: 17}
	asSpec := autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 4, UpThreshold: 1.5,
		DownThreshold: 0.2, Cooldown: 6}

	want := directRunEdgeAutoscaled(t, tr, cfg, asSpec)
	if want.ScaleUps == 0 {
		t.Fatal("controller never scaled; test is vacuous")
	}
	opts := cfg.options()
	opts.NoPerSiteLatency = true
	checkAutoscaled(t, "autoscale", want, replay(t, tr, autoscaledTopology(cfg, asSpec), opts))
}

// chainTopology is a three-tier edge→regional→cloud overflow chain
// with thresholds low enough for a hot trace to engage both hops.
func chainTopology() Topology {
	regional := netem.Jittered("regional-13ms", 0.013, 0.002)
	cloud := cloudPath()
	return Topology{
		Name: "chain",
		Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
			{Name: "regional", Sites: 1, ServersPerSite: 2, Path: regional, Dispatch: CentralQueueDispatch},
			{Name: "cloud", Sites: 1, ServersPerSite: 4, Path: cloud, Dispatch: CentralQueueDispatch},
		},
		Spills: []SpillEdge{
			{From: "edge", To: "regional", Threshold: 3, DetourPath: &regional},
			{From: "regional", To: "cloud", Threshold: 5, DetourPath: &cloud},
		},
	}
}

func TestChainTopologyEndToEnd(t *testing.T) {
	procs := siteProcs([]float64{30, 10, 6, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 300, Seed: 211, Arrivals: procs})
	res, err := Run(tr.Source(), chainTopology(), Options{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tiers) != 3 {
		t.Fatalf("want 3 tier results, got %d", len(res.Tiers))
	}
	edge, regional, cloud := res.Tier("edge"), res.Tier("regional"), res.Tier("cloud")
	if edge.Spilled == 0 {
		t.Fatal("edge never spilled; chain test is vacuous")
	}
	if regional.Spilled == 0 {
		t.Fatal("regional never spilled; second hop untested")
	}
	if cloud.Served == 0 {
		t.Fatal("cloud tier served nothing despite regional spills")
	}
	if got := edge.Served + regional.Served + cloud.Served; got != res.Completed {
		t.Errorf("per-tier served %d != completed %d", got, res.Completed)
	}
	// Requests escalating through the chain pay every hop's RTT, so
	// each tier's fastest completion sits above a strictly higher
	// network floor (~1 ms, ~14 ms, ~39 ms). Means need not be ordered
	// — pooled deep tiers often beat a saturated edge site, which is
	// the paper's inversion story.
	if !(edge.EndToEnd.Min() < regional.EndToEnd.Min() &&
		regional.EndToEnd.Min() < cloud.EndToEnd.Min()) {
		t.Errorf("per-tier latency floors %.4f/%.4f/%.4f not ordered by hop count",
			edge.EndToEnd.Min(), regional.EndToEnd.Min(), cloud.EndToEnd.Min())
	}
	if cloud.EndToEnd.Min() < 0.025 {
		t.Errorf("cloud-served floor %.4fs below the accumulated detour RTTs", cloud.EndToEnd.Min())
	}
}

func TestHybridPinnedClassTopology(t *testing.T) {
	tr := Generate(GenSpec{Sites: 5, Duration: 200, PerSiteRate: 6, Seed: 223})
	topo := Topology{
		Name: "hybrid",
		Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
			{Name: "cloud", Sites: 1, ServersPerSite: 5, Path: cloudPath(), Dispatch: CentralQueueDispatch},
		},
		Classes: []ClassRule{{Name: "pinned", Sites: []int{1, 3}, Tier: "cloud"}},
	}
	res, err := Run(tr.Source(), topo, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	var pinned uint64
	for _, rec := range tr.Records {
		if rec.Site == 1 || rec.Site == 3 {
			pinned++
		}
	}
	cloud := res.Tier("cloud")
	if cloud.Served != pinned {
		t.Errorf("cloud served %d, want the %d pinned-site requests", cloud.Served, pinned)
	}
	edge := res.Tier("edge")
	if edge.Served != res.Completed-pinned {
		t.Errorf("edge served %d, want %d", edge.Served, res.Completed-pinned)
	}
	// The pinned sites' stations must see no arrivals at the edge.
	for _, s := range []int{1, 3} {
		if got := edge.Sites[s].Arrivals; got != 0 {
			t.Errorf("edge site %d saw %d arrivals despite pinning", s, got)
		}
	}
}

func TestFractionClassSplit(t *testing.T) {
	tr := Generate(GenSpec{Sites: 5, Duration: 300, PerSiteRate: 6, Seed: 227})
	topo := Topology{
		Name: "split",
		Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
			{Name: "cloud", Sites: 1, ServersPerSite: 5, Path: cloudPath(), Dispatch: CentralQueueDispatch},
		},
		Classes: []ClassRule{{Name: "half", Fraction: 0.5, Tier: "cloud"}},
	}
	res, err := Run(tr.Source(), topo, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Tier("cloud").Served) / float64(res.Completed)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("cloud share %.3f, want ~0.5", frac)
	}
	// Same seed replays identically.
	res2, err := Run(tr.Source(), topo, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tier("cloud").Served != res.Tier("cloud").Served ||
		res2.EndToEnd.Mean() != res.EndToEnd.Mean() {
		t.Error("fractional class split is not reproducible at a fixed seed")
	}
}

func TestHeterogeneousPerSitePaths(t *testing.T) {
	tr := Generate(GenSpec{Sites: 3, Duration: 200, PerSiteRate: 4, Seed: 229})
	topo := Topology{
		Name: "hetero",
		Tiers: []Tier{{
			Name: "edge", Sites: 3, ServersPerSite: 1, Path: edgePath(),
			PerSitePaths: []netem.Path{
				netem.Constant("metro", 0.001),
				netem.Constant("suburb", 0.010),
				netem.Constant("rural", 0.080),
			},
		}},
	}
	res, err := Run(tr.Source(), topo, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	sites := res.Tier("edge").Sites
	if len(sites) != 3 {
		t.Fatalf("want 3 site rows, got %d", len(sites))
	}
	m0, m1, m2 := sites[0].EndToEnd.Mean(), sites[1].EndToEnd.Mean(), sites[2].EndToEnd.Mean()
	if !(m0 < m1 && m1 < m2) {
		t.Errorf("per-site means %.4f/%.4f/%.4f not ordered by path RTT", m0, m1, m2)
	}
	if m2 < 0.080 {
		t.Errorf("rural site mean %.4fs below its 80 ms network floor", m2)
	}
}

func TestAutoscaledTierBehindSpill(t *testing.T) {
	procs := siteProcs([]float64{30, 12, 6, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 300, Seed: 233, Arrivals: procs})
	regional := netem.Jittered("regional-13ms", 0.013, 0.002)
	topo := Topology{
		Name: "spill-into-autoscale",
		Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
			{
				Name: "regional", Sites: 1, ServersPerSite: 1, Path: regional,
				Dispatch: CentralQueueDispatch,
				Scaler: &autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 6,
					UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 4},
			},
		},
		Spills: []SpillEdge{{From: "edge", To: "regional", Threshold: 3, DetourPath: &regional}},
	}
	res, err := Run(tr.Source(), topo, Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Tier("regional")
	if res.Tier("edge").Spilled == 0 || reg.Served == 0 {
		t.Fatal("spill into the autoscaled tier never engaged")
	}
	if reg.ScaleUps == 0 {
		t.Error("autoscaled tier behind the spill edge never scaled up")
	}
	if reg.PeakServers <= 1 {
		t.Errorf("peak servers %d, want growth beyond the initial 1", reg.PeakServers)
	}
	if res.Offered != res.Consumed {
		t.Errorf("offered %d != consumed %d: controller drain logic leaked requests",
			res.Offered, res.Consumed)
	}
}

func TestTopologySpecParse(t *testing.T) {
	spec := `{
		"name": "two-tier",
		"tiers": [
			{"name": "edge", "sites": 3, "servers": 1, "rttMs": 1, "jitterMs": 0.2},
			{"name": "cloud", "sites": 1, "servers": 3, "rttMs": 25, "dispatch": "central-queue"}
		],
		"spills": [{"from": "edge", "to": "cloud", "threshold": 2, "sampleToRtt": true}],
		"classes": [{"name": "pinned", "sites": [0], "tier": "cloud"}]
	}`
	topo, err := ParseTopology([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Tiers) != 2 || len(topo.Spills) != 1 || len(topo.Classes) != 1 {
		t.Fatalf("parsed shape wrong: %+v", topo)
	}
	if topo.Spills[0].DetourPath == nil {
		t.Error("sampleToRtt should attach the target tier's path as the detour")
	}
	tr := Generate(GenSpec{Sites: 3, Duration: 60, PerSiteRate: 8, Seed: 239})
	if _, err := Run(tr.Source(), topo, Options{Seed: 41}); err != nil {
		t.Fatalf("parsed topology failed to run: %v", err)
	}

	if _, err := ParseTopology([]byte(`{"tiers": [{"name": "x", "sites": 1, "rttMsTypo": 3}]}`)); err == nil {
		t.Error("unknown spec fields should be rejected")
	}
	if _, err := ParseTopology([]byte(`{"tiers": [{"name": "x", "sites": 1, "discipline": "nope"}]}`)); err == nil {
		t.Error("unknown discipline should be rejected")
	}
}

func TestPresetTopologiesRun(t *testing.T) {
	procs := siteProcs([]float64{24, 10, 6, 4, 4})
	tr := Generate(GenSpec{Sites: 5, Duration: 120, Seed: 241, Arrivals: procs})
	for _, name := range TopologyPresets() {
		topo, ok := PresetTopology(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		res, err := Run(tr.Source(), topo, Options{Seed: 43})
		if err != nil {
			t.Fatalf("preset %q failed: %v", name, err)
		}
		if res.Completed == 0 {
			t.Errorf("preset %q completed nothing", name)
		}
		if res.Offered != res.Consumed {
			t.Errorf("preset %q: offered %d != consumed %d", name, res.Offered, res.Consumed)
		}
	}
	if _, ok := PresetTopology("nope"); ok {
		t.Error("unknown preset should not resolve")
	}
	var names []string
	names = append(names, TopologyPresets()...)
	if len(names) < 3 || strings.Join(names, ",") == "" {
		t.Error("presets list should name at least the three shipped scenarios")
	}
}
