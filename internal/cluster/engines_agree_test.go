package cluster_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
)

// deterministicTopology is edge-regional-cloud with nothing left for
// the engines' stream disciplines to disagree on: constant client
// paths, fixed spill detours (no DetourPath), central-queue shared
// tiers (no dispatcher stream) and a site-pinned class (no Bernoulli
// stream). The edge admits through a per-site token bucket and the
// cloud's queue is capped, so rejections and drops both occur.
func deterministicTopology() cluster.Topology {
	return cluster.Topology{
		Name: "deterministic",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.Constant("edge", 0.001),
				Admission: &admit.Spec{Policy: admit.TokenBucket, Rate: 11, Burst: 4}},
			{Name: "regional", Sites: 1, ServersPerSite: 1, Path: netem.Constant("regional", 0.013),
				Dispatch: cluster.CentralQueueDispatch},
			{Name: "cloud", Sites: 1, ServersPerSite: 2, Path: netem.Constant("cloud", 0.025),
				Dispatch: cluster.CentralQueueDispatch, QueueCap: 1},
		},
		Spills: []cluster.SpillEdge{
			{From: "edge", To: "regional", Threshold: 2, DetourRTT: 0.012},
			{From: "regional", To: "cloud", Threshold: 2, DetourRTT: 0.015},
		},
		Classes: []cluster.ClassRule{{Name: "pinned", Sites: []int{4}, Tier: "cloud"}},
	}
}

// TestSerialMatchesShardedOnDeterministicPaths: with no random stream
// whose discipline differs between them, the serial Run and the
// sharded RunPipelined replay the same events, so they must agree on
// every counter, duration, utilization and exact or bounded quantile,
// per tier and per site. Means may differ in the last bits only: Run
// adds completions in completion order, the sharded merge in site
// order.
func TestSerialMatchesShardedOnDeterministicPaths(t *testing.T) {
	topo := deterministicTopology()
	spec := cluster.GenSpec{Sites: 5, Duration: 200, PerSiteRate: 13, Seed: 9}
	for _, mode := range []stats.Mode{stats.Exact, stats.Bounded} {
		opts := cluster.Options{Warmup: 20, Seed: 4, Summary: mode}
		want, err := cluster.Run(cluster.Stream(spec), topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		regional, cloud := want.Tier("regional"), want.Tier("cloud")
		if regional.Spilled == 0 || cloud.Dropped == 0 || want.Rejected == 0 || cloud.Classes[0].Served == 0 {
			t.Fatalf("mode %v: regional spilled %d, cloud dropped %d, rejected %d, pinned served %d: "+
				"the load exercises too little to be an oracle",
				mode, regional.Spilled, cloud.Dropped, want.Rejected, cloud.Classes[0].Served)
		}
		for _, shards := range []int{1, 3} {
			got, err := cluster.RunPipelined(cluster.GenShards(spec), topo, opts, shards)
			if err != nil {
				t.Fatal(err)
			}
			agreeAcrossEngines(t, fmt.Sprintf("mode %v/shards %d", mode, shards), want, got)
		}
	}
}

// agreeAcrossEngines asserts equal counters, durations, utilizations
// and quantiles, and means within 1e-12 relative.
func agreeAcrossEngines(t *testing.T, name string, want, got *cluster.TopologyResult) {
	t.Helper()
	same := func(what string, w, g any) {
		if w != g {
			t.Errorf("%s: %s %v != %v", name, what, g, w)
		}
	}
	digest := func(what string, w, g *stats.Digest) {
		same(what+" n", w.N(), g.N())
		for _, q := range []float64{0.5, 0.95, 0.99, 1} {
			same(fmt.Sprintf("%s q%v", what, q), w.Quantile(q), g.Quantile(q))
		}
		if wm, gm := w.Mean(), g.Mean(); math.Abs(gm-wm) > 1e-12*math.Abs(wm) {
			t.Errorf("%s: %s mean %v != %v beyond 1e-12 relative", name, what, gm, wm)
		}
	}
	same("offered", want.Offered, got.Offered)
	same("consumed", want.Consumed, got.Consumed)
	same("completed", want.Completed, got.Completed)
	same("dropped", want.Dropped, got.Dropped)
	same("rejected", want.Rejected, got.Rejected)
	same("duration", want.Duration, got.Duration)
	same("utilization", want.Utilization, got.Utilization)
	same("total cost", want.TotalCost, got.TotalCost)
	digest("end-to-end", &want.EndToEnd, &got.EndToEnd)
	digest("wait", &want.Wait, &got.Wait)
	for i := range want.Tiers {
		w, g := &want.Tiers[i], &got.Tiers[i]
		tier := "tier " + w.Name
		same(tier+" served", w.Served, g.Served)
		same(tier+" spilled", w.Spilled, g.Spilled)
		same(tier+" dropped", w.Dropped, g.Dropped)
		same(tier+" rejected", w.Rejected, g.Rejected)
		same(tier+" utilization", w.Utilization, g.Utilization)
		same(tier+" server-seconds", w.ServerSeconds, g.ServerSeconds)
		digest(tier+" end-to-end", &w.EndToEnd, &g.EndToEnd)
		digest(tier+" wait", &w.Wait, &g.Wait)
		for c := range w.Classes {
			wc, gc := &w.Classes[c], &g.Classes[c]
			class := tier + " class " + wc.Name
			same(class+" served", wc.Served, gc.Served)
			same(class+" dropped", wc.Dropped, gc.Dropped)
			same(class+" rejected", wc.Rejected, gc.Rejected)
			digest(class+" end-to-end", &wc.EndToEnd, &gc.EndToEnd)
		}
		same(tier+" sites", len(w.Sites), len(g.Sites))
		for s := range w.Sites {
			ws, gs := &w.Sites[s], &g.Sites[s]
			site := fmt.Sprintf("%s site %d", tier, s)
			same(site+" arrivals", ws.Arrivals, gs.Arrivals)
			same(site+" rate", ws.MeanRate, gs.MeanRate)
			same(site+" utilization", ws.Utilization, gs.Utilization)
			digest(site+" wait", &ws.Wait, &gs.Wait)
			digest(site+" end-to-end", &ws.EndToEnd, &gs.EndToEnd)
		}
	}
}
