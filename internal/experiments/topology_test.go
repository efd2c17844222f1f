package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/netem"
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
	for _, p := range res.Points {
		if p.N == 0 || p.Mean <= 0 {
			t.Errorf("rate %v: empty point %+v", p.RatePerServer, p)
		}
		if len(p.Tiers) != 2 {
			t.Fatalf("rate %v: %d tier points", p.RatePerServer, len(p.Tiers))
		}
		var served uint64
		for _, tier := range p.Tiers {
			served += tier.Served
		}
		if served != uint64(p.N) {
			t.Errorf("rate %v: tier served %d != N %d", p.RatePerServer, served, p.N)
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
	for i := range res.Points {
		if res.Points[i].Mean != serial.Points[i].Mean || res.Points[i].N != serial.Points[i].N {
			t.Errorf("point %d: parallel %+v != serial %+v", i, res.Points[i], serial.Points[i])
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
	for i, p := range res.Points {
		for k, shape := range [][]TopologyPoint{res.Points, res.Rivals[0], res.Rivals[1], res.Rivals[2]} {
			if shape[i].Mean <= 0 {
				t.Errorf("rate %v: shape %d empty %+v", p.RatePerServer, k, shape[i])
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
// engines agree on every counter and quantile; means may differ in the
// last bits (summation order), so they are held to 1e-12 relative.
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
				pointsAgree(t, fmt.Sprintf("%s rate %v shards %d", shape.Name, rate, shards), got, topologyPoint(rate, run))
			}
		}
	}
}

// pointsAgree asserts got and want share every field exactly except
// their means (the point's and each tier's), which it holds to 1e-12
// relative.
func pointsAgree(t *testing.T, name string, got, want TopologyPoint) {
	t.Helper()
	means := func(p TopologyPoint) ([]float64, TopologyPoint) {
		ms := []float64{p.Mean}
		p.Mean = 0
		p.Tiers = append([]TierPoint(nil), p.Tiers...)
		for j := range p.Tiers {
			ms = append(ms, p.Tiers[j].Mean)
			p.Tiers[j].Mean = 0
		}
		return ms, p
	}
	gm, g := means(got)
	wm, w := means(want)
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s:\nsweep   %+v\nsharded %+v", name, got, want)
		return
	}
	for j := range wm {
		if math.Abs(gm[j]-wm[j]) > 1e-12*math.Abs(wm[j]) {
			t.Errorf("%s: mean %d is %v, sharded %v", name, j, gm[j], wm[j])
		}
	}
}
