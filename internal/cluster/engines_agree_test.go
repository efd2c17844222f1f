package cluster_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/admit"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/stats"
)

// deterministicTopology is edge-regional-cloud with constant client
// paths, fixed spill detours (no DetourPath), central-queue shared
// tiers and a site-pinned class. The edge admits through a per-site
// token bucket and the cloud's queue is capped, so rejections and drops
// both occur.
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

// TestSerialMatchesSharded: both engines build every random stream from
// one per-site layout, so the serial Run and the sharded RunPipelined
// replay the same events on every shardable graph and must agree on
// every counter, duration, utilization, mean, variance and exact or
// bounded quantile, per tier and per site, bit for bit: Run adds
// completions in completion order and the sharded engine merges the
// shards' digests, and neither order moves a bit. The graphs cover
// constant and jittered client paths, sampled spill detours at
// generation time and between shared tiers, a site-pinned class, an
// autoscaled shared tier, a randomized dispatcher and a slowed edge
// whose spills are rescaled to the next tier.
func TestSerialMatchesSharded(t *testing.T) {
	topos := []cluster.Topology{deterministicTopology()}
	for _, preset := range cluster.TopologyPresets() {
		topo, ok := cluster.PresetTopology(preset)
		if !ok {
			t.Fatalf("unknown preset %q", preset)
		}
		topos = append(topos, topo)
	}
	// edge-regional-cloud with its cloud pool behind a power-of-two
	// dispatcher, which draws the cloud tier's routing stream.
	p2c, _ := cluster.PresetTopology("edge-regional-cloud")
	p2c.Name = "edge-regional-p2c"
	p2c.Tiers[2] = cluster.CloudTier(5, p2c.Tiers[2].Path, lb.PolicyPowerOfTwo)
	// edge-regional-cloud with edge servers at half speed: every spill
	// out of the edge rescales its service demand back to factor 1.
	slowed, _ := cluster.PresetTopology("edge-regional-cloud")
	slowed.Name = "edge-regional-slowed"
	slowed.Tiers[0].SlowdownFactor = 2
	topos = append(topos, p2c, slowed)

	spec := cluster.GenSpec{Sites: 5, Duration: 200, PerSiteRate: 16, Seed: 9}
	for _, topo := range topos {
		for _, mode := range []stats.Mode{stats.Exact, stats.Bounded} {
			opts := cluster.Options{Warmup: 20, Seed: 4, Summary: mode}
			want, err := cluster.Run(cluster.Stream(spec), topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			last := len(want.Tiers) - 1
			for _, tr := range want.Tiers[:last] {
				if tr.Spilled == 0 {
					t.Fatalf("%s mode %v: tier %s never spilled: the load exercises too little to be an oracle",
						topo.Name, mode, tr.Name)
				}
			}
			if want.Tiers[last].Served == 0 {
				t.Fatalf("%s mode %v: tier %s served nothing", topo.Name, mode, want.Tiers[last].Name)
			}
			for _, shards := range []int{1, 3} {
				got, err := cluster.RunPipelined(cluster.GenShards(spec), topo, opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				agreeAcrossEngines(t, fmt.Sprintf("%s mode %v/shards %d", topo.Name, mode, shards), want, got)
			}
		}
	}
	det, err := cluster.Run(cluster.Stream(spec), deterministicTopology(), cluster.Options{Warmup: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cloud := det.Tier("cloud"); cloud.Dropped == 0 || det.Rejected == 0 || cloud.Classes[0].Served == 0 {
		t.Fatalf("deterministic: cloud dropped %d, rejected %d, pinned served %d: drops, "+
			"rejections and the pinned class go untested", cloud.Dropped, det.Rejected, cloud.Classes[0].Served)
	}
}

// agreeAcrossEngines asserts equal counters, durations, utilizations,
// quantiles, means and variances.
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
		for _, m := range []struct {
			name string
			w, g float64
		}{{"mean", w.Mean(), g.Mean()}, {"variance", w.Variance(), g.Variance()}} {
			if math.Float64bits(m.w) != math.Float64bits(m.g) {
				t.Errorf("%s: %s %s %v != %v", name, what, m.name, m.g, m.w)
			}
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

// TestSpillRescalesService: a request spilled out of a slowed tier is
// served at the target tier's speed. A home edge at a third of the
// speed spills to a factor-1 pool with room for every request, so with
// constant paths, a fixed detour and constant service each request the
// pool serves takes exactly entry RTT + detour + the factor-1 service
// time, under Run and RunPipelined alike.
func TestSpillRescalesService(t *testing.T) {
	const (
		service = 0.05
		edgeRTT = 0.002
		detour  = 0.02
	)
	topo := cluster.Topology{
		Name: "slowed-edge",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: 3, ServersPerSite: 1, SlowdownFactor: 3,
				Path: netem.Constant("edge", edgeRTT)},
			{Name: "cloud", Sites: 1, ServersPerSite: 64, Path: netem.Constant("cloud", 0.025),
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 1, DetourRTT: detour}},
	}
	spec := cluster.GenSpec{Sites: 3, Duration: 60, PerSiteRate: 8, Seed: 5,
		Model: app.NewInferenceModelWith(service, 0)}
	opts := cluster.Options{Seed: 2}
	check := func(name string, res *cluster.TopologyResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		edge, cloud := res.Tier("edge"), res.Tier("cloud")
		if edge.Served == 0 || cloud.Served == 0 {
			t.Fatalf("%s: edge served %d, cloud %d: the spill goes untested", name, edge.Served, cloud.Served)
		}
		want := edgeRTT + detour + service
		if lo, hi := cloud.EndToEnd.Min(), cloud.EndToEnd.Max(); math.Abs(lo-want) > 1e-9 || math.Abs(hi-want) > 1e-9 {
			t.Errorf("%s: cloud latency in [%v, %v], want %v (the factor-1 service time)", name, lo, hi, want)
		}
	}
	res, err := cluster.Run(cluster.Stream(spec), topo, opts)
	check("Run", res, err)
	for _, shards := range []int{1, 3} {
		res, err := cluster.RunPipelined(cluster.GenShards(spec), topo, opts, shards)
		check(fmt.Sprintf("RunPipelined/shards %d", shards), res, err)
	}
}
