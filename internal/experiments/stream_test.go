package experiments

import (
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/econ"
)

// materialize drains the spec's stream into memory: the runners always
// stream, and these tests replay the held records as their oracle.
func materialize(spec cluster.GenSpec) *cluster.WorkloadTrace {
	tr := &cluster.WorkloadTrace{Sites: spec.Sites}
	src := cluster.Stream(spec)
	for rec, ok := src.Next(); ok; rec, ok = src.Next() {
		tr.Records = append(tr.Records, rec)
	}
	return tr
}

// streamScalerConfig is a small two-policy comparison, shared by the
// streaming-equivalence tests.
func streamScalerConfig(workload string) ScalerComparisonConfig {
	return ScalerComparisonConfig{
		Workload: workload,
		Sites:    3,
		Duration: 240,
		Seed:     17,
		BaseRate: 14,
		Specs: []autoscale.Spec{
			{Policy: autoscale.PolicyReactive, Interval: 5, Min: 1, Max: 5,
				UpThreshold: 1.5, DownThreshold: 0.3, Cooldown: 15},
			{Policy: autoscale.PolicyPredictive, Interval: 5, Min: 1, Max: 5,
				Mu: 13, TargetUtil: 0.7, Forecaster: "ewma"},
		},
	}
}

// TestScalerWorkloadTableComplete: the advertised workload list and the
// builder table validation/derivation read must agree exactly.
func TestScalerWorkloadTableComplete(t *testing.T) {
	names := ScalerWorkloads()
	if len(names) != len(scalerWorkloadBuilders) {
		t.Fatalf("ScalerWorkloads lists %d names, builder table has %d", len(names), len(scalerWorkloadBuilders))
	}
	for _, name := range names {
		if scalerWorkloadBuilders[name] == nil {
			t.Errorf("workload %q advertised but has no builder", name)
		}
	}
}

// TestScalerComparisonStreamingMatchesMaterialized: the ROADMAP fix —
// policy rows broadcast from one generator source must be bit-identical
// to rows replayed one by one over a materialized trace, for every
// workload family. Row equality implies every row consumed the
// identical arrival sequence.
func TestScalerComparisonStreamingMatchesMaterialized(t *testing.T) {
	for _, wl := range ScalerWorkloads() {
		cfg := streamScalerConfig(wl)
		got, err := RunScalerComparison(cfg)
		if err != nil {
			t.Fatalf("%s streaming: %v", wl, err)
		}
		// The oracle: RunScalerComparison's defaults, then one Run per
		// policy over fresh iterators of one materialized trace.
		cfg.Warmup, cfg.MinServers, cfg.MaxServers = cfg.Duration/10, 1, 6
		cfg.Pricing = econ.DefaultPricing()
		build, err := scalerWorkloadBuilder(cfg.Workload)
		if err != nil {
			t.Fatal(err)
		}
		tr := materialize(scalerSpecFrom(cfg, build))
		want := make([]*cluster.TopologyResult, len(cfg.Specs))
		for i, s := range cfg.Specs {
			run, err := cluster.Run(tr.Source(), scalerTopology(cfg, s), cluster.Options{
				Warmup: cfg.Warmup, Seed: cfg.Seed + 1, Pricing: &cfg.Pricing,
			})
			if err != nil {
				t.Fatalf("%s materialized: %v", wl, err)
			}
			want[i] = run
		}
		if len(got.Runs) != len(want) {
			t.Fatalf("%s: %d streaming runs, %d materialized", wl, len(got.Runs), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got.Runs[i], want[i]) {
				t.Errorf("%s: run %d (%s) diverges between streaming and materialized:\n got %+v\nwant %+v",
					wl, i, want[i].Label, got.Runs[i], want[i])
			}
		}
	}
}

// TestScalerStreamingRowsReplayIdenticalSequence asserts the
// per-row-source contract directly: two sources derived from the same
// comparison config yield the same records, element for element.
func TestScalerStreamingRowsReplayIdenticalSequence(t *testing.T) {
	for _, wl := range ScalerWorkloads() {
		cfg := streamScalerConfig(wl)
		// The same resolve-then-derive path RunScalerComparison's
		// streaming mode uses.
		build, err := scalerWorkloadBuilder(cfg.Workload)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() cluster.Source { return cluster.Stream(scalerSpecFrom(cfg, build)) }
		a, b := mk(), mk()
		n := 0
		for {
			ra, oka := a.Next()
			rb, okb := b.Next()
			if oka != okb {
				t.Fatalf("%s: per-row sources disagree on length at record %d", wl, n)
			}
			if !oka {
				break
			}
			if ra != rb {
				t.Fatalf("%s: record %d diverges between per-row sources: %+v vs %+v", wl, n, ra, rb)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%s: sources yielded nothing; test is vacuous", wl)
		}
	}
}

// TestTopologySweepStreamingMatchesMaterialized: a swept topology and
// its paired rival, broadcast from one generator source per point,
// reproduce independent runs over a materialized trace point for
// point, bit for bit.
func TestTopologySweepStreamingMatchesMaterialized(t *testing.T) {
	topo, ok := cluster.PresetTopology("edge-regional-cloud")
	if !ok {
		t.Fatal("preset edge-regional-cloud missing")
	}
	baseline := cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{
		cluster.CloudTier(10, topo.Tiers[len(topo.Tiers)-1].Path, ""),
	}}
	cfg := TopologySweepConfig{
		Topology: topo,
		Rates:    []float64{6, 10},
		Duration: 200,
		Warmup:   20,
		Seed:     31,
		Rivals:   []cluster.Topology{baseline},
	}
	got, err := RunTopologySweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle: the sweep's per-point spec and seeds, one Run per
	// shape over fresh iterators of one materialized trace.
	want := TopologySweepResult{Rivals: make([][]*cluster.TopologyResult, 1)}
	for i, rate := range cfg.Rates {
		tr := materialize(cluster.GenSpec{
			Sites:       topo.Tiers[0].Sites,
			Duration:    cfg.Duration,
			PerSiteRate: rate * float64(topo.Tiers[0].ServersPerSite),
			Model:       app.NewInferenceModel(),
			Seed:        cfg.Seed + int64(i)*7919,
		})
		for _, shape := range []struct {
			topo cluster.Topology
			seed int64
			out  *[]*cluster.TopologyResult
		}{
			{topo, cfg.Seed + int64(i)*104729, &want.Points},
			{baseline, cfg.Seed + int64(i)*1299709, &want.Rivals[0]},
		} {
			run, err := cluster.Run(tr.Source(), shape.topo, cluster.Options{Warmup: cfg.Warmup, Seed: shape.seed})
			if err != nil {
				t.Fatal(err)
			}
			*shape.out = append(*shape.out, run)
		}
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Errorf("streaming sweep points diverge from materialized:\n got %+v\nwant %+v",
			got.Points, want.Points)
	}
	if !reflect.DeepEqual(got.Rivals, want.Rivals) {
		t.Errorf("streaming rival points diverge from materialized:\n got %+v\nwant %+v",
			got.Rivals, want.Rivals)
	}
}
