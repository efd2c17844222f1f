package cluster_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// The paper's pair: a 5-site × 2-server edge on a 1 ms path and a
// pooled 10-server central-queue cloud on a 25 ms path, both one tier.
const (
	pairEdgeSpec = `{"name": "pair-edge",
	  "tiers": [{"name": "edge", "sites": 5, "servers": 2, "rttMs": 1, "jitterMs": 0.2}]}`
	pairCloudSpec = `{"name": "pair-cloud",
	  "tiers": [{"name": "cloud", "sites": 1, "servers": 10, "rttMs": 25, "jitterMs": 3,
	             "dispatch": "central-queue"}]}`
)

// overflowSpec is the pair's edge with a pooled central-queue cloud
// behind it that takes every request whose home site is saturated.
const overflowSpec = `{"name": "edge-overflow",
  "tiers": [{"name": "edge", "sites": 5, "servers": 2, "rttMs": 1, "jitterMs": 0.2},
            {"name": "cloud", "sites": 1, "servers": 10, "rttMs": 25, "jitterMs": 3,
             "dispatch": "central-queue"}],
  "spills": [{"from": "edge", "to": "cloud", "threshold": 2, "sampleToRtt": true}]}`

// pairTopologies parses the edge and cloud of the paper's pair.
func pairTopologies(t testing.TB) []cluster.Topology {
	t.Helper()
	var out []cluster.Topology
	for _, spec := range []string{pairEdgeSpec, pairCloudSpec} {
		topo, err := cluster.ParseTopology([]byte(spec))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	return out
}

// digestProbes are the quantiles the sharing and derivation checks
// compare, ends included.
var digestProbes = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}

// sameDigestBits fails t unless two digests agree bit for bit on their
// mode, count, moments and every probed quantile.
func sameDigestBits(t *testing.T, label string, got, want *stats.Digest) {
	t.Helper()
	if got.Mode() != want.Mode() || got.N() != want.N() {
		t.Fatalf("%s: %s digest of %d, want %s of %d", label, got.Mode(), got.N(), want.Mode(), want.N())
	}
	if got.N() == 0 {
		t.Fatalf("%s: empty digest; the check would be vacuous", label)
	}
	pairs := [][2]float64{{got.Mean(), want.Mean()}, {got.Variance(), want.Variance()},
		{got.Min(), want.Min()}, {got.Max(), want.Max()}}
	for _, q := range digestProbes {
		pairs = append(pairs, [2]float64{got.Quantile(q), want.Quantile(q)})
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Errorf("%s: value %d is %v, want %v", label, i, p[0], p[1])
		}
	}
}

// TestHarvestSharesSingleSourceDigests: a one-tier run's aggregate
// end-to-end and wait digests are its tier's, and a one-station tier's
// wait is its station's, bit for bit; on a multi-tier run the
// aggregates hold exactly the union of the tiers' observations.
func TestHarvestSharesSingleSourceDigests(t *testing.T) {
	spec := cluster.GenSpec{Sites: 5, Duration: 300, PerSiteRate: 20, Seed: 3}
	for _, mode := range []stats.Mode{stats.Exact, stats.Bounded} {
		opts := cluster.Options{Warmup: 30, Seed: 3, Summary: mode}
		for _, topo := range pairTopologies(t) {
			res, err := cluster.Run(cluster.Stream(spec), topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := mode.String() + " " + topo.Name
			tier := &res.Tiers[0]
			sameDigestBits(t, label+" EndToEnd", &res.EndToEnd, &tier.EndToEnd)
			sameDigestBits(t, label+" Wait", &res.Wait, &tier.Wait)
			if len(tier.Sites) == 1 {
				sameDigestBits(t, label+" tier wait", &tier.Wait, &tier.Sites[0].Wait)
			}
		}
		// The sharded engine shares the same way on a one-tier home
		// topology.
		edge := pairTopologies(t)[0]
		res, err := cluster.RunPipelined(cluster.GenShards(spec), edge, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameDigestBits(t, mode.String()+" sharded EndToEnd", &res.EndToEnd, &res.Tiers[0].EndToEnd)
		sameDigestBits(t, mode.String()+" sharded Wait", &res.Wait, &res.Tiers[0].Wait)

		// A multi-tier preset keeps separate aggregates: their counts and
		// quantiles are the tiers' union's.
		topo, _ := cluster.PresetTopology("edge-regional-cloud")
		res, err = cluster.Run(cluster.Stream(cluster.GenSpec{Sites: topo.Tiers[0].Sites,
			Duration: 300, PerSiteRate: 12, Seed: 3}), topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		var e2e, wait []*stats.Digest
		for i := range res.Tiers {
			e2e = append(e2e, &res.Tiers[i].EndToEnd)
			wait = append(wait, &res.Tiers[i].Wait)
		}
		for _, c := range []struct {
			name  string
			agg   *stats.Digest
			tiers []*stats.Digest
		}{
			{"EndToEnd", &res.EndToEnd, e2e},
			{"Wait", &res.Wait, wait},
		} {
			union := stats.Merged(c.tiers...)
			if c.agg.N() != union.N() || c.agg.N() == res.Tiers[0].EndToEnd.N() {
				t.Fatalf("%s preset %s: aggregate holds %d, tiers' union %d (tier 0 alone %d)",
					mode, c.name, c.agg.N(), union.N(), res.Tiers[0].EndToEnd.N())
			}
			for _, q := range digestProbes {
				if got, want := c.agg.Quantile(q), union.Quantile(q); got != want {
					t.Errorf("%s preset %s: q=%v %v, tiers' union %v", mode, c.name, q, got, want)
				}
			}
		}
	}
}

// sameModeEverywhere fails t unless every digest res collects is in
// mode want: a digest an exact run left at its zero value reads as
// bounded. A site's end-to-end digest is skipped when it holds nothing,
// since only a home-routed entry tier reports per-site latency.
func sameModeEverywhere(t *testing.T, label string, res *cluster.TopologyResult, want stats.Mode) {
	t.Helper()
	check := func(name string, d *stats.Digest) {
		if d.Mode() != want {
			t.Errorf("%s: %s is %s, want %s", label, name, d.Mode(), want)
		}
	}
	check("EndToEnd", &res.EndToEnd)
	check("Wait", &res.Wait)
	for i := range res.Tiers {
		tr := &res.Tiers[i]
		check(tr.Name+" EndToEnd", &tr.EndToEnd)
		check(tr.Name+" Wait", &tr.Wait)
		for j := range tr.Sites {
			check(fmt.Sprintf("%s site %d Wait", tr.Name, j), &tr.Sites[j].Wait)
			if tr.Sites[j].EndToEnd.N() > 0 {
				check(fmt.Sprintf("%s site %d EndToEnd", tr.Name, j), &tr.Sites[j].EndToEnd)
			}
		}
		for c := range tr.Classes {
			check(tr.Name+" class "+tr.Classes[c].Name, &tr.Classes[c].EndToEnd)
		}
	}
}

// TestAggregatesDeriveFromCells: every engine adds a served request to
// one (tier, class) cell and derives the coarser digests at harvest, so
// on every engine and in both summary modes the run aggregate is the
// merge of the tiers in tier order, and a classed tier the merge of its
// classes in rank order, bit for bit. Every digest of the result is in
// the run's mode: Bounded from Options' zero Summary, Exact when named.
func TestAggregatesDeriveFromCells(t *testing.T) {
	topos := []cluster.Topology{deterministicTopology()}
	for _, preset := range cluster.TopologyPresets() {
		topo, ok := cluster.PresetTopology(preset)
		if !ok {
			t.Fatalf("unknown preset %q", preset)
		}
		topos = append(topos, topo)
	}
	spec := cluster.GenSpec{Sites: 5, Duration: 200, PerSiteRate: 16, Seed: 9}
	for _, topo := range topos {
		for _, mode := range []stats.Mode{stats.Exact, stats.Bounded} {
			opts := cluster.Options{Warmup: 20, Seed: 4}
			if mode == stats.Exact {
				opts.Summary = stats.Exact
			}
			engines := []struct {
				name string
				run  func() (*cluster.TopologyResult, error)
			}{
				{"run", func() (*cluster.TopologyResult, error) {
					return cluster.Run(cluster.Stream(spec), topo, opts)
				}},
				{"pipelined-1", func() (*cluster.TopologyResult, error) {
					return cluster.RunPipelined(cluster.GenShards(spec), topo, opts, 1)
				}},
				{"pipelined-4", func() (*cluster.TopologyResult, error) {
					return cluster.RunPipelined(cluster.GenShards(spec), topo, opts, 4)
				}},
				{"broadcast", func() (*cluster.TopologyResult, error) {
					res, err := cluster.RunBroadcast(cluster.Stream(spec),
						[]cluster.Variant{{Label: topo.Name, Topology: topo, Opts: opts}}, 0)
					if err != nil {
						return nil, err
					}
					return res[0], nil
				}},
			}
			for _, e := range engines {
				res, err := e.run()
				if err != nil {
					t.Fatal(err)
				}
				label := topo.Name + " " + mode.String() + " " + e.name
				sameModeEverywhere(t, label, res, mode)
				tiers := make([]*stats.Digest, len(res.Tiers))
				for i := range res.Tiers {
					tr := &res.Tiers[i]
					tiers[i] = &tr.EndToEnd
					if tr.Classes == nil {
						continue
					}
					classes := make([]*stats.Digest, len(tr.Classes))
					for c := range tr.Classes {
						classes[c] = &tr.Classes[c].EndToEnd
					}
					want := stats.Merged(classes...)
					sameDigestBits(t, label+" tier "+tr.Name, &tr.EndToEnd, &want)
				}
				want := stats.Merged(tiers...)
				sameDigestBits(t, label+" aggregate", &res.EndToEnd, &want)
			}
		}
	}
}

// exactBytesPerServed replays the pair's topology over a fixed 5-site
// spec in Exact mode and returns the bytes allocated per served
// request, construction and harvest included.
func exactBytesPerServed(t *testing.T, topo cluster.Topology) float64 {
	t.Helper()
	spec := cluster.GenSpec{Sites: 5, Duration: 1000, PerSiteRate: 20, Seed: 1}
	opts := cluster.Options{Warmup: 50, Seed: 1, Summary: stats.Exact}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := cluster.Run(cluster.Stream(spec), topo, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Completed)
}

// TestOneTierExactAllocCeiling fails when a one-tier Exact run gains a
// duplicate latency collector. An Exact collector that receives every
// served request costs 8 B per request: its sample fills fixed blocks
// that are never regrown or copied. The edge collects three digests per
// served request (its tier, the home site and the station wait) and the
// cloud two (its tier and the station wait); the edge tier's wait is one
// harvest merge of its five stations', 8 B per request more, and the
// run aggregates share the tier's. On this spec that allocates 34 B
// (edge) and 17 B (cloud) per served request; one more collector, 8 B
// more, would cross either ceiling.
func TestOneTierExactAllocCeiling(t *testing.T) {
	ceilings := map[string]float64{"pair-edge": 39, "pair-cloud": 22}
	for _, topo := range pairTopologies(t) {
		got := exactBytesPerServed(t, topo)
		t.Logf("%s: %.0f B allocated per served request", topo.Name, got)
		if got > ceilings[topo.Name] {
			t.Errorf("%s: %.0f B allocated per served request, ceiling %.0f B: a one-tier Exact run keeps a latency collector it should share",
				topo.Name, got, ceilings[topo.Name])
		}
	}
}

// TestMultiTierExactAllocCeiling fails when a multi-tier Exact run adds
// a served request to more than one end-to-end collector plus its home
// site's. The edge-with-overflow topology collects its tier cell, the
// home-site digest and the station wait per served request, 8 B each,
// and derives the run aggregate at harvest as one merge that allocates
// 8 B per request once; the edge tier's and the run's waits are merged
// the same way. On this spec that allocates 49 B per served request;
// one more collector, 8 B more, would cross the ceiling.
func TestMultiTierExactAllocCeiling(t *testing.T) {
	topo, err := cluster.ParseTopology([]byte(overflowSpec))
	if err != nil {
		t.Fatal(err)
	}
	got := exactBytesPerServed(t, topo)
	t.Logf("%s: %.0f B allocated per served request", topo.Name, got)
	const ceiling = 54.0
	if got > ceiling {
		t.Errorf("%s: %.0f B allocated per served request, ceiling %.0f B: a multi-tier Exact run adds a request to a collector harvest should derive",
			topo.Name, got, ceiling)
	}
}
