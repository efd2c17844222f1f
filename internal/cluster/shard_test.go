package cluster_test

// Sharded replay must be bit-identical across shard counts: RunPipelined
// with N engines produces the same TopologyResult as with 1, for every
// preset, seed, warmup and summary mode, and for generator, trace,
// streaming-CSV and Azure sources. These tests are the determinism
// proof the -shards flag rests on; the CI race job runs them under
// -race to also certify the shard goroutines, the merger and the
// phase-2 pumps share nothing unsynchronized.

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
)

func presetSpec(sites int, seed int64) cluster.GenSpec {
	return cluster.GenSpec{
		Sites:       sites,
		Duration:    120,
		PerSiteRate: 9,
		Seed:        seed,
	}
}

// presetRun replays a shipped preset through run (RunPipelined or a
// test variant of it) on a generator workload derived from seed.
func presetRun(t *testing.T, run func(cluster.ShardedSource, cluster.Topology, cluster.Options, int) (*cluster.TopologyResult, error),
	preset string, shards int, warmup float64, mode stats.Mode, seed int64) *cluster.TopologyResult {
	t.Helper()
	topo, ok := cluster.PresetTopology(preset)
	if !ok {
		t.Fatalf("unknown preset %q", preset)
	}
	src := cluster.GenShards(presetSpec(topo.Tiers[0].Sites, seed))
	res, err := run(src, topo, cluster.Options{Warmup: warmup, Seed: seed, Summary: mode}, shards)
	if err != nil {
		t.Fatalf("preset %s with %d shards: %v", preset, shards, err)
	}
	return res
}

// TestShardCountInvariance: whole TopologyResults are bit-identical
// for every shard count, across all shipped presets, seeds, warmup and
// summary modes. Shard count 8 exceeds the presets' 5 sites, proving
// the clamp path too.
func TestShardCountInvariance(t *testing.T) {
	for _, preset := range cluster.TopologyPresets() {
		if err := func() error {
			topo, _ := cluster.PresetTopology(preset)
			return cluster.Shardable(topo)
		}(); err != nil {
			t.Fatalf("preset %s must be shardable: %v", preset, err)
		}
		for _, seed := range []int64{1, 42} {
			for _, tc := range []struct {
				label  string
				warmup float64
				mode   stats.Mode
			}{
				{"exact", 0, stats.Exact},
				{"exact-warmup", 30, stats.Exact},
				{"bounded", 0, stats.Bounded},
				{"bounded-warmup", 30, stats.Bounded},
			} {
				want := presetRun(t, cluster.RunPipelined, preset, 1, tc.warmup, tc.mode, seed)
				if want.Offered == 0 {
					t.Fatalf("%s/%s: no requests offered; test is vacuous", preset, tc.label)
				}
				if want.Offered != want.Consumed {
					t.Fatalf("%s/%s: offered %d != consumed %d", preset, tc.label,
						want.Offered, want.Consumed)
				}
				for _, shards := range []int{2, 3, 4, 8} {
					got := presetRun(t, cluster.RunPipelined, preset, shards, tc.warmup, tc.mode, seed)
					compareTopologyResults(t,
						preset+"/"+tc.label+"/shards", want, got)
				}
			}
		}
	}
}

// TestBoundedTailsMatchExact: a bounded sharded replay of the
// edge-regional-cloud preset (200 s at 20 req/s per site, 60 s warmup)
// reports the same tails as the exact reference replay, within the
// bounded digest's 1% error bound, at the aggregate and on every tier.
// Every per-station and per-site digest reaches those figures through
// cross-shard merges, which must not distort the mixture.
func TestBoundedTailsMatchExact(t *testing.T) {
	topo, _ := cluster.PresetTopology("edge-regional-cloud")
	spec := cluster.GenSpec{Sites: topo.Tiers[0].Sites, Duration: 200, PerSiteRate: 20, Seed: 1}
	run := func(mode stats.Mode) *cluster.TopologyResult {
		res, err := cluster.RunPipelined(cluster.GenShards(spec), topo,
			cluster.Options{Warmup: 60, Seed: 2, Summary: mode}, 2)
		if err != nil {
			t.Fatalf("%s replay: %v", mode, err)
		}
		return res
	}
	exact, bounded := run(stats.Exact), run(stats.Bounded)
	if bounded.EndToEnd.Mode() != stats.Bounded || bounded.EndToEnd.N() != exact.EndToEnd.N() {
		t.Fatalf("bounded aggregate: %s digest of %d, want bounded of %d",
			bounded.EndToEnd.Mode(), bounded.EndToEnd.N(), exact.EndToEnd.N())
	}
	check := func(what string, b, e *stats.Digest) {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			want, got := e.Quantile(q), b.Quantile(q)
			if rel := math.Abs(got-want) / want; rel > 0.01 {
				t.Errorf("%s p%v: bounded %.4g vs exact %.4g (rel err %.4f)", what, q*100, got, want, rel)
			}
		}
	}
	check("aggregate", &bounded.EndToEnd, &exact.EndToEnd)
	for i := range exact.Tiers {
		check(exact.Tiers[i].Name+" end-to-end", &bounded.Tiers[i].EndToEnd, &exact.Tiers[i].EndToEnd)
	}
}

// TestShardedSourcesAgree: the ShardedSource adapters — lazy generator
// ranges, materialized trace filtering, and re-scanned streaming CSV
// and .etb decoders — feed bit-identical sharded runs, at
// different shard counts, all matching the one-shard generator run.
func TestShardedSourcesAgree(t *testing.T) {
	const sites = 5
	topo := spillTopology(sites)
	opts := cluster.Options{Warmup: 20, Seed: 11, Summary: stats.Exact}
	mk := func() cluster.GenSpec { return presetSpec(sites, 7) }

	want, err := cluster.RunPipelined(cluster.GenShards(mk()), topo, opts, 1)
	if err != nil {
		t.Fatalf("generator baseline: %v", err)
	}
	if want.Offered == 0 {
		t.Fatal("baseline offered no requests; test is vacuous")
	}

	got, err := cluster.RunPipelined(cluster.GenShards(mk()), topo, opts, 2)
	if err != nil {
		t.Fatalf("generator source: %v", err)
	}
	compareTopologyResults(t, "gen-shards", want, got)

	tr := cluster.Generate(mk())
	got, err = cluster.RunPipelined(cluster.SourceShards(tr.Source, tr.Sites), topo, opts, 3)
	if err != nil {
		t.Fatalf("trace source: %v", err)
	}
	compareTopologyResults(t, "trace-shards", want, got)

	var buf bytes.Buffer
	if _, err := trace.WriteRequestsCSV(&buf, cluster.Stream(mk())); err != nil {
		t.Fatalf("encode CSV: %v", err)
	}
	csv := buf.String()
	factory := func() cluster.Source { return trace.StreamRequestsCSV(strings.NewReader(csv)) }
	got, err = cluster.RunPipelined(cluster.SourceShards(factory, sites), topo, opts, 4)
	if err != nil {
		t.Fatalf("csv source: %v", err)
	}
	compareTopologyResults(t, "csv-shards", want, got)

	var etb bytes.Buffer
	if _, err := trace.WriteBinary(&etb, cluster.Stream(mk())); err != nil {
		t.Fatalf("encode .etb: %v", err)
	}
	etbFactory := func() cluster.Source { return trace.StreamBinary(bytes.NewReader(etb.Bytes())) }
	got, err = cluster.RunPipelined(cluster.SourceShards(etbFactory, sites), topo, opts, 3)
	if err != nil {
		t.Fatalf("etb source: %v", err)
	}
	compareTopologyResults(t, "etb-shards", want, got)
}

// TestShardedAzureSourceDeterministic: the Azure per-bin decoder,
// re-scanned per shard through SourceShards, sharded at N matches
// sharded at 1.
func TestShardedAzureSourceDeterministic(t *testing.T) {
	const azureCSV = `bin,s0,s1,s2,s3
0,40,55,35,20
1,30,25,45,30
2,25,30,20,35
`
	factory := func() cluster.Source {
		return trace.StreamAzureCSV(strings.NewReader(azureCSV), trace.AzureStreamOptions{
			BinWidth: 30,
			Seed:     3,
		})
	}
	probe := trace.StreamAzureCSV(strings.NewReader(azureCSV), trace.AzureStreamOptions{})
	sites := probe.Sites()
	if sites <= 1 {
		t.Fatalf("azure trace has %d sites; want several", sites)
	}

	topo := spillTopology(sites)
	opts := cluster.Options{Seed: 5, Summary: stats.Exact}
	want, err := cluster.RunPipelined(cluster.SourceShards(factory, sites), topo, opts, 1)
	if err != nil {
		t.Fatalf("azure baseline: %v", err)
	}
	if want.Offered == 0 {
		t.Fatal("azure baseline offered no requests; test is vacuous")
	}
	for _, shards := range []int{2, sites} {
		got, err := cluster.RunPipelined(cluster.SourceShards(factory, sites), topo, opts, shards)
		if err != nil {
			t.Fatalf("azure %d shards: %v", shards, err)
		}
		compareTopologyResults(t, "azure-shards", want, got)
	}
}

// TestShardedSourceErrorSurfaces: a decode failure inside a shard
// worker comes back as an error, not a panic or a silently truncated
// result, without deadlocking the merger or the phase-2 pumps — the
// failing shard still closes its ring, so the whole pipeline drains —
// and every goroutine the run started exits.
func TestShardedSourceErrorSurfaces(t *testing.T) {
	const bad = "time,site,service\n0.5,0,0.01\n1.0,1,0.02\nnot-a-number,0,0.01\n"
	factory := func() cluster.Source { return trace.StreamRequestsCSV(strings.NewReader(bad)) }
	topo := spillTopology(2)
	before := runtime.NumGoroutine()
	_, err := cluster.RunPipelined(cluster.SourceShards(factory, 2), topo, cluster.Options{Seed: 1}, 2)
	if err == nil {
		t.Fatal("want a decode error from the sharded run, got none")
	}
	if !strings.Contains(err.Error(), "source failed") {
		t.Fatalf("error does not identify the source failure: %v", err)
	}
	cluster.WaitGoroutines(t, before)
}

// regressingTrace goes back in time at its third record (site 1's
// second), in the full sequence and in any shard holding site 1.
func regressingTrace() *cluster.WorkloadTrace {
	return &cluster.WorkloadTrace{Sites: 2, Records: []cluster.RequestRecord{
		{Time: 1, Site: 0, ServiceTime: 0.01},
		{Time: 2, Site: 1, ServiceTime: 0.01},
		{Time: 1.5, Site: 1, ServiceTime: 0.01},
		{Time: 3, Site: 0, ServiceTime: 0.01},
	}}
}

// TestSourceTimeRegressionIsAnError: a source that goes back in time
// fails Run and RunPipelined with an error naming the regression, and
// the sharded run's goroutines all exit.
func TestSourceTimeRegressionIsAnError(t *testing.T) {
	topo := spillTopology(2)
	opts := cluster.Options{Seed: 1}
	if _, err := cluster.Run(regressingTrace().Source(), topo, opts); err == nil ||
		!strings.Contains(err.Error(), "yielded time 1.5 after 2") {
		t.Fatalf("Run: want a time-regression error, got %v", err)
	}
	before := runtime.NumGoroutine()
	for _, shards := range []int{1, 2} {
		tr := regressingTrace()
		_, err := cluster.RunPipelined(cluster.SourceShards(tr.Source, tr.Sites), topo, opts, shards)
		if err == nil || !strings.Contains(err.Error(), "yielded time 1.5 after 2") {
			t.Fatalf("%d shards: want a time-regression error, got %v", shards, err)
		}
	}
	cluster.WaitGoroutines(t, before)
}

// unfilteredShards breaks the ShardedSource contract: every shard gets
// the whole trace, whatever its site range.
type unfilteredShards struct{ tr *cluster.WorkloadTrace }

func (u unfilteredShards) Sites() int                      { return u.tr.Sites }
func (u unfilteredShards) Shard(lo, hi int) cluster.Source { return u.tr.Source() }

// TestShardedSourceOutsideShardIsAnError: a sharded source that yields
// a site outside the shard's range fails the run with an error, and
// every goroutine exits.
func TestShardedSourceOutsideShardIsAnError(t *testing.T) {
	tr := cluster.Generate(presetSpec(4, 3))
	before := runtime.NumGoroutine()
	_, err := cluster.RunPipelined(unfilteredShards{tr}, spillTopology(4), cluster.Options{Seed: 1}, 2)
	if err == nil || !strings.Contains(err.Error(), "outside shard") {
		t.Fatalf("want an outside-shard error, got %v", err)
	}
	cluster.WaitGoroutines(t, before)
}

// TestResolveShards: 0 keeps the single engine, an explicit count must
// pass Shardable, and auto takes one engine per CPU — or falls back to
// the single engine when the graph cannot shard.
func TestResolveShards(t *testing.T) {
	ok := cluster.Topology{Name: "ok", Tiers: []cluster.Tier{{Name: "edge", Sites: 3, ServersPerSite: 1, Path: netem.EdgePath}}}
	coupled := ok
	coupled.Tiers = []cluster.Tier{ok.Tiers[0]}
	coupled.Tiers[0].JockeyThreshold = 2
	for _, tc := range []struct {
		name    string
		setting int
		topo    cluster.Topology
		want    int
		wantErr bool
	}{
		{"zero", 0, ok, 0, false},
		{"zero-coupled", 0, coupled, 0, false},
		{"explicit", 4, ok, 4, false},
		{"explicit-coupled", 4, coupled, 0, true},
		{"auto", -1, ok, runtime.GOMAXPROCS(0), false},
		{"auto-coupled", -1, coupled, 0, false},
	} {
		got, err := cluster.ResolveShards(tc.setting, tc.topo)
		if got != tc.want || (err != nil) != tc.wantErr {
			t.Errorf("%s: got %d, %v; want %d, error %v", tc.name, got, err, tc.want, tc.wantErr)
		}
	}
}

// TestShardableRejections: every coupling feature is named and
// rejected, and RunPipelined refuses the options and shard counts it
// cannot honor.
func TestShardableRejections(t *testing.T) {
	home := func() cluster.Topology {
		return cluster.Topology{
			Name: "reject",
			Tiers: []cluster.Tier{
				{Name: "edge", Sites: 3, ServersPerSite: 1, Path: netem.EdgePath},
				{Name: "cloud", Sites: 1, ServersPerSite: 3, Path: netem.CloudTypical,
					Dispatch: cluster.CentralQueueDispatch},
			},
			Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 2}},
		}
	}

	t.Run("jockeying-home-tier", func(t *testing.T) {
		topo := home()
		topo.Tiers[0].JockeyThreshold = 2
		if err := cluster.Shardable(topo); err == nil || !strings.Contains(err.Error(), "jockeys") {
			t.Fatalf("want jockey rejection, got %v", err)
		}
	})
	t.Run("home-tier-scaler", func(t *testing.T) {
		topo := home()
		spec := autoscale.Spec{Policy: autoscale.PolicyReactive,
			Interval: 5, Min: 1, Max: 4, UpThreshold: 1.5, DownThreshold: 0.3, Cooldown: 15,
		}
		topo.Tiers[0].Scaler = &spec
		if err := cluster.Shardable(topo); err == nil || !strings.Contains(err.Error(), "autoscaler") {
			t.Fatalf("want home-scaler rejection, got %v", err)
		}
	})
	t.Run("bernoulli-class", func(t *testing.T) {
		topo := home()
		topo.Classes = []cluster.ClassRule{{Name: "split", Fraction: 0.25, Tier: "cloud"}}
		if err := cluster.Shardable(topo); err == nil || !strings.Contains(err.Error(), "Bernoulli") {
			t.Fatalf("want Bernoulli rejection, got %v", err)
		}
	})
	t.Run("shared-to-home-spill", func(t *testing.T) {
		topo := cluster.Topology{
			Name: "reject-reentry",
			Tiers: []cluster.Tier{
				{Name: "gateway", Sites: 1, ServersPerSite: 2, Path: netem.CloudTypical,
					Dispatch: cluster.CentralQueueDispatch},
				{Name: "edge", Sites: 3, ServersPerSite: 1, Path: netem.EdgePath},
			},
			Spills: []cluster.SpillEdge{{From: "gateway", To: "edge", Threshold: 4}},
		}
		if err := cluster.Shardable(topo); err == nil || !strings.Contains(err.Error(), "re-enters") {
			t.Fatalf("want re-entry rejection, got %v", err)
		}
	})
	t.Run("deep-home-detour", func(t *testing.T) {
		detour := netem.CloudTypical
		topo := cluster.Topology{
			Name: "reject-deep",
			Tiers: []cluster.Tier{
				{Name: "edge", Sites: 3, ServersPerSite: 1, Path: netem.EdgePath},
				{Name: "metro", Sites: 3, ServersPerSite: 1, Path: netem.EdgePath},
				{Name: "cloud", Sites: 1, ServersPerSite: 3, Path: netem.CloudTypical,
					Dispatch: cluster.CentralQueueDispatch},
			},
			Spills: []cluster.SpillEdge{
				{From: "edge", To: "metro", Threshold: 2},
				{From: "metro", To: "cloud", Threshold: 2, DetourPath: &detour},
			},
		}
		if err := cluster.Shardable(topo); err == nil || !strings.Contains(err.Error(), "detour") {
			t.Fatalf("want deep-detour rejection, got %v", err)
		}
	})
	t.Run("timeline-unsupported", func(t *testing.T) {
		src := cluster.GenShards(presetSpec(3, 1))
		_, err := cluster.RunPipelined(src, home(), cluster.Options{TimelineBin: 1}, 2)
		if err == nil || !strings.Contains(err.Error(), "TimelineBin") {
			t.Fatalf("want timeline rejection, got %v", err)
		}
	})
	t.Run("probe-unsupported", func(t *testing.T) {
		src := cluster.GenShards(presetSpec(3, 1))
		_, err := cluster.RunPipelined(src, home(), cluster.Options{Probe: func(int) {}}, 2)
		if err == nil || !strings.Contains(err.Error(), "Probe") {
			t.Fatalf("want probe rejection, got %v", err)
		}
	})
	t.Run("site-mismatch", func(t *testing.T) {
		src := cluster.GenShards(presetSpec(4, 1))
		_, err := cluster.RunPipelined(src, home(), cluster.Options{}, 2)
		if err == nil || !strings.Contains(err.Error(), "sites") {
			t.Fatalf("want site-count rejection, got %v", err)
		}
	})
	t.Run("no-shards", func(t *testing.T) {
		// ResolveShards turns an automatic setting into a count; a count
		// below one fails before any goroutine starts.
		before := runtime.NumGoroutine()
		for _, shards := range []int{0, -1} {
			_, err := cluster.RunPipelined(cluster.GenShards(presetSpec(3, 1)), home(), cluster.Options{}, shards)
			if err == nil || !strings.Contains(err.Error(), "at least one shard") {
				t.Fatalf("shards %d: want a shard-count rejection, got %v", shards, err)
			}
		}
		cluster.WaitGoroutines(t, before)
	})
}

// TestRunRejectsBacklogProbe: the single engine has no boundary
// backlog, so Run and RunBroadcast refuse a BacklogProbe instead of
// never calling it.
func TestRunRejectsBacklogProbe(t *testing.T) {
	opts := cluster.Options{BacklogProbe: func(int) {}}
	if _, err := cluster.Run(cluster.Stream(presetSpec(3, 1)), spillTopology(3), opts); err == nil ||
		!strings.Contains(err.Error(), "BacklogProbe") {
		t.Fatalf("Run: want a BacklogProbe rejection, got %v", err)
	}
	variants := []cluster.Variant{{Label: "probed", Topology: spillTopology(3), Opts: opts}}
	if _, err := cluster.RunBroadcast(cluster.Stream(presetSpec(3, 1)), variants, 0); err == nil ||
		!strings.Contains(err.Error(), "BacklogProbe") {
		t.Fatalf("RunBroadcast: want a BacklogProbe rejection, got %v", err)
	}
}
