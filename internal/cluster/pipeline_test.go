package cluster_test

// The sharded backend's concurrent machinery — watermarked rings, the
// merger goroutine, the phase-2 pump — must reorder nothing:
// RunPipelined produces the same TopologyResult as the barrier oracle
// (barrier_test.go), which sorts the full boundary harvest and replays
// it on one engine, for every preset, seed, warmup and summary mode,
// shard count and ring size.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ring4 runs the sharded backend with 4-record boundary rings.
func ring4(src cluster.ShardedSource, topo cluster.Topology, opts cluster.Options, shards int) (*cluster.TopologyResult, error) {
	return cluster.RunPipelinedRing(src, topo, opts, shards, 4)
}

// TestPipelinedMatchesBarrier: whole TopologyResults are bit-identical
// between the sharded backend and the barrier oracle across all shipped
// presets (hetero-paths carries a shared-tier autoscaler, so the
// blocking-pump discipline under controller ticks is covered), seeds,
// warmup and summary modes, and shard counts. The ring-4 variant
// forces constant backpressure: every shard blocks on a nearly-full
// ring while the merge drains it, proving stalls cannot reorder the
// canonical stream.
func TestPipelinedMatchesBarrier(t *testing.T) {
	for _, preset := range cluster.TopologyPresets() {
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
				want := presetRun(t, cluster.RunBarrier, preset, 1, tc.warmup, tc.mode, seed)
				if want.Offered == 0 {
					t.Fatalf("%s/%s: no requests offered; test is vacuous", preset, tc.label)
				}
				for _, shards := range []int{1, 2, 3, 8} {
					got := presetRun(t, cluster.RunPipelined, preset, shards, tc.warmup, tc.mode, seed)
					compareTopologyResults(t,
						preset+"/"+tc.label+"/pipelined", want, got)
				}
				got := presetRun(t, ring4, preset, 4, tc.warmup, tc.mode, seed)
				compareTopologyResults(t,
					preset+"/"+tc.label+"/pipelined-ring4", want, got)
			}
		}
	}
}

// TestPipelinedSourcesAgree: the sharded backend is source-agnostic —
// lazy generator ranges, materialized trace filtering and re-scanned
// streaming CSV and .etb decoders all reproduce the barrier oracle's
// generator baseline, with default and 4-record rings.
func TestPipelinedSourcesAgree(t *testing.T) {
	const sites = 5
	topo := spillTopology(sites)
	opts := cluster.Options{Warmup: 20, Seed: 11, Summary: stats.Exact}
	mk := func() cluster.GenSpec { return presetSpec(sites, 7) }

	want, err := cluster.RunBarrier(cluster.GenShards(mk()), topo, opts, 1)
	if err != nil {
		t.Fatalf("barrier baseline: %v", err)
	}
	if want.Offered == 0 {
		t.Fatal("baseline offered no requests; test is vacuous")
	}

	var csvBuf, etbBuf bytes.Buffer
	if _, err := trace.WriteRequestsCSV(&csvBuf, cluster.Stream(mk())); err != nil {
		t.Fatalf("encode CSV: %v", err)
	}
	if _, err := trace.WriteBinary(&etbBuf, cluster.Stream(mk())); err != nil {
		t.Fatalf("encode .etb: %v", err)
	}
	csv, etb := csvBuf.String(), etbBuf.Bytes()

	for _, tc := range []struct {
		label  string
		shards int
		src    func() cluster.ShardedSource
	}{
		{"gen", 2, func() cluster.ShardedSource { return cluster.GenShards(mk()) }},
		{"trace", 3, func() cluster.ShardedSource {
			tr := cluster.Generate(mk())
			return cluster.SourceShards(tr.Source, tr.Sites)
		}},
		{"csv", 4, func() cluster.ShardedSource {
			return cluster.SourceShards(func() cluster.Source {
				return trace.StreamRequestsCSV(strings.NewReader(csv))
			}, sites)
		}},
		{"etb", 3, func() cluster.ShardedSource {
			return cluster.SourceShards(func() cluster.Source {
				return trace.StreamBinary(bytes.NewReader(etb))
			}, sites)
		}},
	} {
		got, err := cluster.RunPipelined(tc.src(), topo, opts, tc.shards)
		if err != nil {
			t.Fatalf("pipelined %s source: %v", tc.label, err)
		}
		compareTopologyResults(t, "pipelined-"+tc.label, want, got)
		got, err = ring4(tc.src(), topo, opts, tc.shards)
		if err != nil {
			t.Fatalf("pipelined %s source, ring 4: %v", tc.label, err)
		}
		compareTopologyResults(t, "pipelined-"+tc.label+"-ring4", want, got)
	}
}

// TestPipelinedAzureSource: the Azure per-bin decoder through the
// sharded backend matches the barrier oracle at several shard counts.
func TestPipelinedAzureSource(t *testing.T) {
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

	topo := spillTopology(sites)
	opts := cluster.Options{Seed: 5, Summary: stats.Exact}
	want, err := cluster.RunBarrier(cluster.SourceShards(factory, sites), topo, opts, 1)
	if err != nil {
		t.Fatalf("azure barrier baseline: %v", err)
	}
	if want.Offered == 0 {
		t.Fatal("azure baseline offered no requests; test is vacuous")
	}
	for _, shards := range []int{2, sites} {
		got, err := cluster.RunPipelined(cluster.SourceShards(factory, sites), topo, opts, shards)
		if err != nil {
			t.Fatalf("pipelined azure %d shards: %v", shards, err)
		}
		compareTopologyResults(t, "pipelined-azure", want, got)
	}
}

// TestPipelinedSourceErrorSurfaces: a decode failure inside a shard
// worker surfaces as the same error the barrier oracle reports,
// without deadlocking the merger or the phase-2 pumps — also under a
// 4-record ring, where the healthy shard is blocked on backpressure
// when its sibling fails.
func TestPipelinedSourceErrorSurfaces(t *testing.T) {
	const bad = "time,site,service\n0.5,0,0.01\n1.0,1,0.02\nnot-a-number,0,0.01\n"
	factory := func() cluster.Source { return trace.StreamRequestsCSV(strings.NewReader(bad)) }
	topo := spillTopology(2)
	opts := cluster.Options{Seed: 1}
	_, want := cluster.RunBarrier(cluster.SourceShards(factory, 2), topo, opts, 2)
	if want == nil {
		t.Fatal("want a decode error from the barrier run, got none")
	}
	for _, tc := range []struct {
		label string
		run   func(cluster.ShardedSource, cluster.Topology, cluster.Options, int) (*cluster.TopologyResult, error)
	}{
		{"default-ring", cluster.RunPipelined},
		{"ring4", ring4},
	} {
		_, err := tc.run(cluster.SourceShards(factory, 2), topo, opts, 2)
		if err == nil {
			t.Fatalf("%s: want a decode error from the pipelined run, got none", tc.label)
		}
		if !strings.Contains(err.Error(), "source failed") {
			t.Fatalf("%s: error does not identify the source failure: %v", tc.label, err)
		}
		if err.Error() != want.Error() {
			t.Fatalf("%s: pipelined error %q, barrier error %q", tc.label, err, want)
		}
	}
}

// TestPipelinedRejections: the sharded backend refuses exactly what
// the barrier oracle refuses, with the same error text.
func TestPipelinedRejections(t *testing.T) {
	topo := spillTopology(3)
	jockey := spillTopology(3)
	jockey.Tiers[0].JockeyThreshold = 2
	src := func(sites int) cluster.ShardedSource { return cluster.GenShards(presetSpec(sites, 1)) }
	for _, tc := range []struct {
		label string
		src   cluster.ShardedSource
		topo  cluster.Topology
		opts  cluster.Options
		text  string
	}{
		{"timeline", src(3), topo, cluster.Options{TimelineBin: 1}, "TimelineBin"},
		{"probe", src(3), topo, cluster.Options{Probe: func(int) {}}, "Probe"},
		{"site-mismatch", src(4), topo, cluster.Options{}, "sites"},
		{"jockeying", src(3), jockey, cluster.Options{}, "jockeys"},
	} {
		_, want := cluster.RunBarrier(tc.src, tc.topo, tc.opts, 2)
		_, got := cluster.RunPipelined(tc.src, tc.topo, tc.opts, 2)
		if got == nil || !strings.Contains(got.Error(), tc.text) {
			t.Fatalf("%s: want a rejection naming %q, got %v", tc.label, tc.text, got)
		}
		if want == nil || want.Error() != got.Error() {
			t.Fatalf("%s: pipelined error %v, barrier error %v", tc.label, got, want)
		}
	}
}

// partitionTopology splits the shared phase into two independent spill
// components: sites enter at edge-a by default, the back half is
// pinned to edge-b by a class rule, and each edge tier spills to its
// own central pool. Both components share the one phase-2 engine.
func partitionTopology(sites int) cluster.Topology {
	detour := netem.CloudTypical
	pinned := make([]int, 0, sites/2)
	for s := sites / 2; s < sites; s++ {
		pinned = append(pinned, s)
	}
	return cluster.Topology{
		Name: "split-shared",
		Tiers: []cluster.Tier{
			{Name: "edge-a", Sites: sites, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "edge-b", Sites: sites, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "pool-a", Sites: 1, ServersPerSite: sites, Path: netem.CloudTypical,
				Dispatch: cluster.CentralQueueDispatch},
			{Name: "pool-b", Sites: 1, ServersPerSite: sites, Path: netem.CloudTypical,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{
			{From: "edge-a", To: "pool-a", Threshold: 2, DetourPath: &detour},
			{From: "edge-b", To: "pool-b", Threshold: 2, DetourRTT: 0.004},
		},
		Classes: []cluster.ClassRule{
			{Name: "b-half", Sites: pinned, Tier: "edge-b"},
		},
	}
}

// TestPipelinedParallelPartitions: a topology whose shared tiers form
// two disjoint spill components, which share the one phase-2 engine,
// replays bit-identically to the barrier oracle, including under a
// tiny ring. Both pools must see traffic or the second component is
// untested.
func TestPipelinedParallelPartitions(t *testing.T) {
	const sites = 6
	topo := partitionTopology(sites)
	if err := cluster.Shardable(topo); err != nil {
		t.Fatalf("partition topology must be shardable: %v", err)
	}
	mk := func() cluster.GenSpec { return presetSpec(sites, 13) }
	opts := cluster.Options{Warmup: 15, Seed: 9, Summary: stats.Exact}

	want, err := cluster.RunBarrier(cluster.GenShards(mk()), topo, opts, 1)
	if err != nil {
		t.Fatalf("barrier baseline: %v", err)
	}
	for _, pool := range []string{"pool-a", "pool-b"} {
		if tr := want.Tier(pool); tr == nil || tr.Served == 0 {
			t.Fatalf("%s served no spilled traffic; partition test is vacuous", pool)
		}
	}

	for _, tc := range []struct {
		label  string
		shards int
		ring   int
	}{
		{"shards2", 2, cluster.BoundaryRing},
		{"shards4-ring8", 4, 8},
	} {
		got, err := cluster.RunPipelinedRing(cluster.GenShards(mk()), topo, opts, tc.shards, tc.ring)
		if err != nil {
			t.Fatalf("pipelined %s: %v", tc.label, err)
		}
		compareTopologyResults(t, "partitions/"+tc.label, want, got)
	}
}

// TestPipelinedBacklogBounded: the satellite memory probe. Peak
// resident boundary records — captured but not yet admitted to the
// phase-2 engine — must be bounded by ring capacity and pipeline
// constants, not by the boundary count: growing the trace 10x and
// 100x may not grow the peak past the same fixed bound.
func TestPipelinedBacklogBounded(t *testing.T) {
	const (
		sites  = 4
		shards = 4
		ring   = 64
		// slack covers what sits outside the rings: per-shard pending
		// heaps (captures within one detour of the shard clock) and the
		// merger/pump batches in flight (a few pipeBatch-sized
		// buffers). All are O(1) in the trace length.
		slack = 2048
		bound = shards*ring + slack
	)
	topo := spillTopology(sites)
	for _, scale := range []struct {
		label    string
		duration float64
	}{
		{"1x", 120},
		{"10x", 1200},
		{"100x", 12000},
	} {
		spec := cluster.GenSpec{
			Sites: sites, Duration: scale.duration, PerSiteRate: 16, Seed: 21,
		}
		peak := -1
		res, err := cluster.RunPipelinedRing(cluster.GenShards(spec), topo, cluster.Options{
			Seed:         21,
			Summary:      stats.Bounded,
			BacklogProbe: func(p int) { peak = p },
		}, shards, ring)
		if err != nil {
			t.Fatalf("%s: %v", scale.label, err)
		}
		if peak < 0 {
			t.Fatalf("%s: BacklogProbe never called", scale.label)
		}
		if peak == 0 {
			t.Fatalf("%s: zero peak backlog; no boundary traffic crossed, test is vacuous", scale.label)
		}
		if peak > bound {
			t.Errorf("%s: peak backlog %d exceeds O(ring) bound %d", scale.label, peak, bound)
		}
		// The bound must be the binding constraint, not a tautology: at
		// 100x the boundary stream is far larger than the bound.
		if scale.label == "100x" {
			if crossed := res.Tier("cloud").Served; crossed < 4*uint64(bound) {
				t.Fatalf("100x run spilled only %d records (< 4x bound %d); grow the trace", crossed, bound)
			}
		}
	}
}
