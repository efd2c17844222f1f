package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

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
	res, err := RunTopologySweep(TopologySweepConfig{
		Topology: topo,
		Rates:    []float64{6, 10, 12},
		Duration: 150,
		Warmup:   15,
		Seed:     3,
	})
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
	serial, err := RunTopologySweep(TopologySweepConfig{
		Topology: topo, Rates: []float64{6, 10, 12},
		Duration: 150, Warmup: 15, Seed: 3, Workers: 1,
	})
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

// TestTopologySweepSharded: sharded sweeps are bit-identical at every
// shard count (the sharded determinism contract surfaced through
// the sweep), auto mode picks a usable count, and the incompatible
// Source+Shards combination is rejected.
func TestTopologySweepSharded(t *testing.T) {
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
	cfg := TopologySweepConfig{
		Topology: topo,
		Rates:    []float64{8, 11},
		Duration: 100,
		Warmup:   10,
		Seed:     9,
		Shards:   1,
	}
	want, err := RunTopologySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Points[0].N == 0 {
		t.Fatal("sharded sweep measured nothing; test is vacuous")
	}
	for _, shards := range []int{2, 4, AutoShards} {
		cfg.Shards = shards
		got, err := RunTopologySweep(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Errorf("shards=%d: points diverge from shards=1", shards)
		}
	}

	cfg.Shards = 2
	cfg.Source = func(spec cluster.GenSpec) cluster.Source { return cluster.Stream(spec) }
	if _, err := RunTopologySweep(cfg); err == nil {
		t.Fatal("want Source+Shards rejection, got none")
	}
	cfg.Source = nil

	// An explicit count on an unshardable topology fails the sweep;
	// auto mode quietly falls back to the single-engine path.
	jockey := topo
	jockey.Tiers = append([]cluster.Tier(nil), topo.Tiers...)
	jockey.Tiers[0].JockeyThreshold = 2
	cfg.Topology = jockey
	if _, err := RunTopologySweep(cfg); err == nil {
		t.Fatal("want unshardable rejection for explicit shard count, got none")
	}
	cfg.Shards = AutoShards
	if _, err := RunTopologySweep(cfg); err != nil {
		t.Fatalf("auto shards must fall back on unshardable topologies: %v", err)
	}
}
