package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
)

func TestRunTopologySweep(t *testing.T) {
	cloud := netem.CloudTypical
	topo := cluster.Topology{
		Name: "two-tier",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: 3, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "cloud", Sites: 1, ServersPerSite: 3, Path: cloud,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloud}},
	}
	cfg := TopologySweepConfig{
		Topology: topo,
		Rates:    []float64{6, 10, 12},
		Duration: 150,
		Warmup:   15,
		Seed:     3,
	}
	var res TopologySweepResult
	var err error
	withProcs(4, func() { res, err = RunTopologySweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, p := range res.Points {
		rate := cfg.Rates[i]
		if p.EndToEnd.N() == 0 || p.EndToEnd.Mean() <= 0 {
			t.Errorf("rate %v: empty point %+v", rate, p)
		}
		if len(p.Tiers) != 2 {
			t.Fatalf("rate %v: %d tier results", rate, len(p.Tiers))
		}
		var served uint64
		for _, tier := range p.Tiers {
			served += tier.Served
		}
		if served != uint64(p.EndToEnd.N()) {
			t.Errorf("rate %v: tier served %d != N %d", rate, served, p.EndToEnd.N())
		}
	}
	if last := res.Points[2].Tiers[0]; last.Spilled == 0 {
		t.Error("highest rate never spilled; sweep should stress the hierarchy")
	}
	// Serial and parallel evaluation agree byte for byte.
	var serial TopologySweepResult
	withProcs(1, func() { serial, err = RunTopologySweep(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Points {
		if q := serial.Points[i]; p.EndToEnd.Mean() != q.EndToEnd.Mean() || p.EndToEnd.N() != q.EndToEnd.N() {
			t.Errorf("point %d: parallel %+v != serial %+v", i, p, q)
		}
	}
}

func TestRunTopologySweepRejectsInvalid(t *testing.T) {
	if _, err := RunTopologySweep(TopologySweepConfig{Rates: []float64{6}}); err == nil {
		t.Error("empty topology accepted")
	}
	bad := cluster.Topology{Tiers: []cluster.Tier{{Name: "x", Sites: 1, Dispatch: "nope"}}}
	if _, err := RunTopologySweep(TopologySweepConfig{Topology: bad, Rates: []float64{6}}); err == nil {
		t.Error("invalid dispatch accepted")
	}
	ok := cluster.Topology{Tiers: []cluster.Tier{{Name: "x", Sites: 2, Path: netem.EdgePath}}}
	if _, err := RunTopologySweep(TopologySweepConfig{Topology: ok}); err == nil {
		t.Error("missing rates accepted")
	}
	// Crossover scans the rates in order, so a descending axis would
	// report its highest rate as inverted at the floor.
	_, err := RunTopologySweep(TopologySweepConfig{Topology: ok, Rates: []float64{12, 9, 6}, Duration: 20})
	if err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("descending rates: error %v, want one asking for ascending rates", err)
	}
	if _, err := RunTopologySweep(TopologySweepConfig{Topology: ok, Rates: []float64{6, 6, 9}, Duration: 20}); err != nil {
		t.Errorf("repeated rate rejected: %v", err)
	}
	// Each shape needs its own seed stride; a fourth rival has none.
	rivals := []cluster.Topology{ok, ok, ok, ok}
	if _, err := RunTopologySweep(TopologySweepConfig{Topology: ok, Rivals: rivals, Rates: []float64{6}, Duration: 20}); err == nil {
		t.Error("four rivals accepted")
	}
	if _, err := RunTopologySweep(TopologySweepConfig{Topology: ok, Rivals: rivals[:3], Rates: []float64{6}, Duration: 20}); err != nil {
		t.Errorf("three rivals rejected: %v", err)
	}
	// A generated sweep whose warmup reaches its duration measures nothing.
	for _, warmup := range []float64{20, 30, math.NaN()} {
		_, err := RunTopologySweep(TopologySweepConfig{Topology: ok, Rates: []float64{6}, Duration: 20, Warmup: warmup})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("warmup %v", warmup)) || !strings.Contains(err.Error(), "duration 20") {
			t.Errorf("warmup %v over a 20 s duration: error %v, want one naming both", warmup, err)
		}
	}
}

func TestRunFigThreeTier(t *testing.T) {
	res, err := RunFigThreeTier(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(res.Config.Rates) || len(res.Rivals) != 3 {
		t.Fatalf("points %d, rivals %d; want %d points, 3 rivals",
			len(res.Points), len(res.Rivals), len(res.Config.Rates))
	}
	for i, rate := range res.Config.Rates {
		for k, shape := range append([][]*cluster.TopologyResult{res.Points}, res.Rivals...) {
			if shape[i].EndToEnd.Mean() <= 0 {
				t.Errorf("rate %v: shape %d empty %+v", rate, k, shape[i])
			}
		}
	}
	top := len(res.Points) - 1
	if res.Rivals[2][top].Tiers[0].Spilled == 0 {
		t.Error("chain never escalated at the top rate; figure is vacuous")
	}
	if res.Rivals[1][top].Tiers[0].Spilled == 0 {
		t.Error("overflow never escalated at the top rate")
	}
}

// TestTopologySweepMatchesSharded: every sweep point — the swept
// topology's and each rival's — equals the sharded engine's replay of
// that point's GenSpec under that shape's seed, at 1 and 4 shards. The
// engines agree on every counter, quantile and mean, bit for bit.
func TestTopologySweepMatchesSharded(t *testing.T) {
	cloud := netem.CloudTypical
	topo := cluster.Topology{
		Name: "two-tier",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: 4, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "cloud", Sites: 1, ServersPerSite: 4, Path: cloud,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloud}},
	}
	pooled := cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{cluster.CloudTier(8, cloud, "")}}
	cfg := TopologySweepConfig{
		Topology: topo,
		Rivals:   []cluster.Topology{pooled},
		Rates:    []float64{8, 11},
		Duration: 100,
		Warmup:   10,
		Seed:     9,
	}
	res, err := RunTopologySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[1].Tiers[0].Spilled == 0 {
		t.Fatal("the top rate never spilled; the shared tier goes untested")
	}
	for i, rate := range cfg.Rates {
		spec := cluster.GenSpec{Sites: 4, Duration: cfg.Duration, PerSiteRate: rate,
			Model: app.NewInferenceModel(), Seed: cfg.Seed + int64(i)*workloadSeedStride}
		for k, shape := range []cluster.Topology{topo, pooled} {
			got := res.Points[i]
			if k > 0 {
				got = res.Rivals[k-1][i]
			}
			opts := cluster.Options{Warmup: cfg.Warmup, Seed: cfg.Seed + int64(i)*shapeSeedStrides[k]}
			for _, shards := range []int{1, 4} {
				run, err := cluster.RunPipelined(cluster.GenShards(spec), shape, opts, shards)
				if err != nil {
					t.Fatalf("%s rate %v shards %d: %v", shape.Name, rate, shards, err)
				}
				runsAgree(t, fmt.Sprintf("%s rate %v shards %d", shape.Name, rate, shards), got, run)
			}
		}
	}
}

// runsAgree asserts got and want share every counter, utilization,
// cost, latency quantile and mean a sweep figure reads (the run's and
// each tier's), bit for bit.
func runsAgree(t *testing.T, name string, got, want *cluster.TopologyResult) {
	t.Helper()
	same := func(what string, g, w any) {
		if g != w {
			t.Errorf("%s: %s is %v, sharded %v", name, what, g, w)
		}
	}
	latency := func(what string, g, w *stats.Digest) {
		same(what+" n", g.N(), w.N())
		same(what+" median", g.Median(), w.Median())
		same(what+" p95", g.P95(), w.P95())
		if gm, wm := g.Mean(), w.Mean(); math.Float64bits(gm) != math.Float64bits(wm) {
			t.Errorf("%s: %s mean is %v, sharded %v", name, what, gm, wm)
		}
	}
	same("offered", got.Offered, want.Offered)
	same("dropped", got.Dropped, want.Dropped)
	same("rejected", got.Rejected, want.Rejected)
	latency("end-to-end", &got.EndToEnd, &want.EndToEnd)
	same("tiers", len(got.Tiers), len(want.Tiers))
	for j := range want.Tiers {
		g, w := &got.Tiers[j], &want.Tiers[j]
		tier := "tier " + w.Name
		same(tier+" name", g.Name, w.Name)
		same(tier+" served", g.Served, w.Served)
		same(tier+" spilled", g.Spilled, w.Spilled)
		same(tier+" dropped", g.Dropped, w.Dropped)
		same(tier+" rejected", g.Rejected, w.Rejected)
		same(tier+" utilization", g.Utilization, w.Utilization)
		same(tier+" peak servers", g.PeakServers, w.PeakServers)
		same(tier+" cost per request", g.CostPerReq, w.CostPerReq)
		latency(tier+" end-to-end", &g.EndToEnd, &w.EndToEnd)
	}
}
