package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/workload"
)

func TestGenerateRates(t *testing.T) {
	tr := Generate(GenSpec{Sites: 5, Duration: 500, PerSiteRate: 8, Seed: 1})
	if tr.Sites != 5 {
		t.Fatalf("Sites = %d", tr.Sites)
	}
	if got := tr.TotalRate(); math.Abs(got-40) > 2 {
		t.Errorf("total rate = %v, want ~40", got)
	}
	for i, r := range tr.SiteRates() {
		if math.Abs(r-8) > 1 {
			t.Errorf("site %d rate = %v, want ~8", i, r)
		}
	}
	if got := tr.MeanServiceTime(); math.Abs(got-1.0/13) > 0.005 {
		t.Errorf("mean service = %v, want ~77ms", got)
	}
}

// TestGenerateOrdered: records are time-ordered for any spec.
func TestGenerateOrdered(t *testing.T) {
	f := func(seed int64) bool {
		tr := Generate(GenSpec{Sites: 3, Duration: 50, PerSiteRate: 5, Seed: seed})
		for i := 1; i < len(tr.Records); i++ {
			if tr.Records[i].Time < tr.Records[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenSpec{Sites: 2, Duration: 100, PerSiteRate: 5, Seed: 9})
	b := Generate(GenSpec{Sites: 2, Duration: 100, PerSiteRate: 5, Seed: 9})
	if a.Len() != b.Len() {
		t.Fatal("same seed, different lengths")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatal("same seed should reproduce the trace exactly")
		}
	}
}

func TestGeneratePanics(t *testing.T) {
	for _, spec := range []GenSpec{
		{Sites: 0, Duration: 10, PerSiteRate: 1},
		{Sites: 2, Duration: 0, PerSiteRate: 1},
		{Sites: 2, Duration: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generate(%+v) should panic", spec)
				}
			}()
			Generate(spec)
		}()
	}
}

func TestFromRecordsSorts(t *testing.T) {
	tr := FromRecords([]RequestRecord{
		{Time: 5, Site: 0, ServiceTime: 0.1},
		{Time: 1, Site: 1, ServiceTime: 0.1},
	}, 2)
	if tr.Records[0].Time != 1 {
		t.Error("FromRecords should sort by time")
	}
}

// TestRunEdgeMatchesMM1Theory: an edge run at known utilization should
// reproduce the analytic sojourn within tolerance.
func TestRunEdgeMatchesMM1Theory(t *testing.T) {
	model := app.NewInferenceModelWith(1.0/13, 1) // exponential service
	tr := Generate(GenSpec{
		Sites: 5, Duration: 3000, PerSiteRate: 8,
		ArrivalSCV: 1, Model: model, Seed: 4,
	})
	res := edgeConfig{
		Sites: 5, ServersPerSite: 1, Path: netem.Constant("zero", 0),
		Warmup: 300, Seed: 5,
	}.run(t, tr)
	rho := 8.0 / 13
	want := theory.MM1Sojourn(rho, 13)
	got := res.EndToEnd.Mean()
	if math.Abs(got-want) > 0.12*want {
		t.Errorf("edge M/M/1 sojourn %v, want %v", got, want)
	}
	if math.Abs(res.Utilization-rho) > 0.05 {
		t.Errorf("utilization %v, want %v", res.Utilization, rho)
	}
}

// TestRunCloudMatchesMMcTheory: the central-queue cloud should match
// M/M/k.
func TestRunCloudMatchesMMcTheory(t *testing.T) {
	model := app.NewInferenceModelWith(1.0/13, 1)
	tr := Generate(GenSpec{
		Sites: 5, Duration: 3000, PerSiteRate: 8,
		ArrivalSCV: 1, Model: model, Seed: 6,
	})
	res := cloudConfig{
		Servers: 5, Path: netem.Constant("zero", 0), Warmup: 300, Seed: 7,
	}.run(t, tr)
	want := theory.MMcSojourn(5, 8.0/13, 13)
	got := res.EndToEnd.Mean()
	if math.Abs(got-want) > 0.12*want {
		t.Errorf("cloud M/M/5 sojourn %v, want %v", got, want)
	}
}

// TestRunMatchesPollaczekKhinchine: an M/E_k/1 station driven through
// Run must reproduce the Pollaczek–Khinchine mean wait, which is exact
// for M/G/1. Service SCV 0.1 is the Erlang-10 fit and 0.4 the mixed
// Erlang(2,3) fit. Each seed is one independent replication; the test
// fails when PK falls outside their 95% batch-means CI widened by 2%.
func TestRunMatchesPollaczekKhinchine(t *testing.T) {
	const (
		mu       = 13.0
		seeds    = 12
		duration = 2500.0
		warmup   = 250.0
	)
	topo := Topology{Name: "mg1", Tiers: []Tier{{
		Name: "edge", Sites: 1, ServersPerSite: 1, Path: netem.Constant("zero", 0),
	}}}
	for _, scv := range []float64{0.1, 0.4} {
		for _, rho := range []float64{0.5, 0.8} {
			model := app.NewInferenceModelWith(1/mu, scv)
			waits := make([]float64, seeds)
			for i := range waits {
				src := Stream(GenSpec{
					Sites: 1, Duration: duration, PerSiteRate: rho * mu,
					ArrivalSCV: 1, Model: model, Seed: int64(2 * i),
				})
				res, err := Run(src, topo, Options{Warmup: warmup, Seed: int64(2*i + 1), Summary: stats.Bounded})
				if err != nil {
					t.Fatal(err)
				}
				waits[i] = res.Wait.Mean()
			}
			ci := stats.ComputeBatchMeans(waits, len(waits))
			want := theory.PollaczekKhinchineWait(rho, mu, scv)
			if slack := ci.HalfWidth + 0.02*want; math.Abs(ci.Mean-want) > slack {
				t.Errorf("scv %v rho %v: mean wait %.5f ± %.5f s, Pollaczek–Khinchine %.5f s",
					scv, rho, ci.Mean, ci.HalfWidth, want)
			}
		}
	}
}

// TestPerformanceInversionIntegration: the headline result. At low rate
// the edge wins; at high rate the cloud wins, with the typical 25 ms
// cloud.
func TestPerformanceInversionIntegration(t *testing.T) {
	sc, _ := netem.ScenarioByName("typical-25ms")
	run := func(rate float64) (edge, cloud float64) {
		tr := Generate(GenSpec{Sites: 5, Duration: 1200, PerSiteRate: rate, Seed: 8})
		e := edgeConfig{Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 120, Seed: 9}.run(t, tr)
		c := cloudConfig{Servers: 5, Path: sc.Cloud, Warmup: 120, Seed: 10}.run(t, tr)
		return e.MeanLatency(), c.MeanLatency()
	}
	eLow, cLow := run(6)
	if eLow >= cLow {
		t.Errorf("at 6 req/s the edge should win: edge %v vs cloud %v", eLow, cLow)
	}
	eHigh, cHigh := run(12)
	if eHigh <= cHigh {
		t.Errorf("at 12 req/s the cloud should win: edge %v vs cloud %v", eHigh, cHigh)
	}
}

// TestK1EdgeAlwaysWins: §3.1.1 — a single-site edge with identical
// hardware sees the whole workload and still beats the cloud.
func TestK1EdgeAlwaysWins(t *testing.T) {
	sc, _ := netem.ScenarioByName("typical-25ms")
	tr := Generate(GenSpec{Sites: 1, Duration: 1000, PerSiteRate: 11 * 5, Seed: 11})
	e := edgeConfig{Sites: 1, ServersPerSite: 5, Path: sc.Edge, Warmup: 100, Seed: 12}.run(t, tr)
	c := cloudConfig{Servers: 5, Path: sc.Cloud, Warmup: 100, Seed: 13}.run(t, tr)
	if e.MeanLatency() >= c.MeanLatency() {
		t.Errorf("k=1 edge should always win: edge %v vs cloud %v", e.MeanLatency(), c.MeanLatency())
	}
}

// TestEdgeSlowdownCausesK1Inversion: §3.1.1's exception — with slower
// edge hardware even k=1 can invert.
func TestEdgeSlowdownCausesK1Inversion(t *testing.T) {
	sc, _ := netem.ScenarioByName("nearby-13ms")
	tr := Generate(GenSpec{Sites: 1, Duration: 1000, PerSiteRate: 10 * 5, Seed: 14})
	e := edgeConfig{
		Sites: 1, ServersPerSite: 5, Path: sc.Edge, Warmup: 100, Seed: 15,
		SlowdownFactor: 1.25, // edge servers 25% slower
	}.run(t, tr)
	c := cloudConfig{Servers: 5, Path: sc.Cloud, Warmup: 100, Seed: 16}.run(t, tr)
	if e.MeanLatency() <= c.MeanLatency() {
		t.Errorf("slowed k=1 edge should invert: edge %v vs cloud %v", e.MeanLatency(), c.MeanLatency())
	}
}

// TestCentralQueueBeatsRoundRobin: the cloud dispatch ablation.
func TestCentralQueueBeatsRoundRobin(t *testing.T) {
	tr := Generate(GenSpec{Sites: 5, Duration: 1500, PerSiteRate: 11, Seed: 17})
	path := netem.Constant("zero", 0)
	cq := cloudConfig{Servers: 5, Path: path, Policy: CentralQueueDispatch, Warmup: 150, Seed: 18}.run(t, tr)
	rr := cloudConfig{Servers: 5, Path: path, Policy: lb.PolicyRoundRobin, Warmup: 150, Seed: 18}.run(t, tr)
	lc := cloudConfig{Servers: 5, Path: path, Policy: lb.PolicyLeastConn, Warmup: 150, Seed: 18}.run(t, tr)
	if cq.MeanLatency() >= rr.MeanLatency() {
		t.Errorf("central queue %v should beat round robin %v", cq.MeanLatency(), rr.MeanLatency())
	}
	if lc.MeanLatency() >= rr.MeanLatency() {
		t.Errorf("least-conn %v should beat round robin %v", lc.MeanLatency(), rr.MeanLatency())
	}
}

// TestGeoLBMitigatesSkew: jockeying reduces edge latency under skew.
func TestGeoLBMitigatesSkew(t *testing.T) {
	// A hot site at ~108% of one server's capacity, others cool.
	procs := siteProcs([]float64{14, 5, 5, 3, 3})
	tr := Generate(GenSpec{Sites: 5, Duration: 800, Seed: 19, Arrivals: procs})
	sc, _ := netem.ScenarioByName("typical-25ms")
	plain := edgeConfig{Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 80, Seed: 20}.run(t, tr)
	geo := edgeConfig{
		Sites: 5, ServersPerSite: 1, Path: sc.Edge, Warmup: 80, Seed: 20,
		JockeyThreshold: 3, DetourRTT: 0.005,
	}.run(t, tr)
	if geo.Redirected == 0 {
		t.Fatal("expected jockeyed requests")
	}
	if geo.MeanLatency() >= plain.MeanLatency() {
		t.Errorf("geo LB %v should beat plain edge %v under skew",
			geo.MeanLatency(), plain.MeanLatency())
	}
}

// TestPerSiteCapacityMatchesSkew: provisioning per-site servers by load
// (Lemma 3.3 takeaway) should balance utilizations.
func TestPerSiteCapacityMatchesSkew(t *testing.T) {
	procs := siteProcs([]float64{20, 10, 5, 5, 5})
	tr := Generate(GenSpec{Sites: 5, Duration: 800, Seed: 21, Arrivals: procs})
	res := edgeConfig{
		Sites: 5, Path: netem.Constant("zero", 0), Warmup: 80, Seed: 22,
		PerSiteServers: []int{2, 1, 1, 1, 1},
	}.run(t, tr)
	u0 := res.Tiers[0].Sites[0].Utilization
	for i := 1; i < 5; i++ {
		if res.Tiers[0].Sites[i].Utilization > 1.01 {
			t.Errorf("site %d saturated: %v", i, res.Tiers[0].Sites[i].Utilization)
		}
	}
	if u0 > 0.95 {
		t.Errorf("provisioned hot site still saturated: %v", u0)
	}
}

// siteProcs builds one Poisson arrival process per site at the given
// rates.
func siteProcs(rates []float64) []workload.ArrivalProcess {
	procs := make([]workload.ArrivalProcess, len(rates))
	for i, r := range rates {
		procs[i] = workload.NewPoisson(r)
	}
	return procs
}

// TestTimelineCollection: the timeline option bins latencies by request
// generation time.
func TestTimelineCollection(t *testing.T) {
	tr := Generate(GenSpec{Sites: 2, Duration: 300, PerSiteRate: 5, Seed: 23})
	res := edgeConfig{
		Sites: 2, ServersPerSite: 1, Path: netem.Constant("zero", 0),
		Seed: 24, TimelineBin: 60,
	}.run(t, tr)
	if res.Timeline == nil {
		t.Fatal("timeline not collected")
	}
	if res.Timeline.NumBins() < 4 {
		t.Errorf("timeline bins = %d, want >= 4", res.Timeline.NumBins())
	}
	var total int
	for i := 0; i < res.Timeline.NumBins(); i++ {
		total += res.Timeline.BinCount(i)
	}
	if total != res.EndToEnd.N() {
		t.Errorf("timeline holds %d observations, result holds %d", total, res.EndToEnd.N())
	}
}

// TestPairedTraceIdentical: edge and cloud runs must see the exact same
// request records (paired comparison).
func TestPairedTraceIdentical(t *testing.T) {
	tr := Generate(GenSpec{Sites: 3, Duration: 200, PerSiteRate: 6, Seed: 25})
	e := edgeConfig{Sites: 3, ServersPerSite: 1, Path: netem.Constant("z", 0), Seed: 26}.run(t, tr)
	c := cloudConfig{Servers: 3, Path: netem.Constant("z", 0), Seed: 27}.run(t, tr)
	if e.Completed != c.Completed || int(e.Completed) != tr.Len() {
		t.Errorf("completions differ: edge %d cloud %d trace %d", e.Completed, c.Completed, tr.Len())
	}
}

// wantRunError runs a sites-wide trace through topo and fails unless
// Run returns an error containing want (and no result).
func wantRunError(t *testing.T, sites int, topo Topology, want string) {
	t.Helper()
	tr := Generate(GenSpec{Sites: sites, Duration: 10, PerSiteRate: 1, Seed: 1})
	res, err := Run(tr.Source(), topo, Options{})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("got result %v, error %v; want an error containing %q", res != nil, err, want)
	}
}

// TestRunEdgeConfigValidation: a source whose sites overflow the
// home-routed edge is an error from Run, not a panic.
func TestRunEdgeConfigValidation(t *testing.T) {
	edge := Tier{Name: "edge", Sites: 2, Path: netem.Constant("z", 0)}
	wantRunError(t, 3, Topology{Tiers: []Tier{edge}}, "home site 2 outside tier")
}

// TestRunCloudPanicsOnZeroServers: a cloud tier with no servers is an
// error from Run (the name predates Run returning errors).
func TestRunCloudPanicsOnZeroServers(t *testing.T) {
	wantRunError(t, 1, Topology{Tiers: []Tier{CloudTier(0, netem.Constant("z", 0), "")}}, "at least one site")
}
