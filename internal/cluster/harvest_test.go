package cluster_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/lb"
	"repro/internal/netem"
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

// engineRun is one engine replaying a generated spec through a
// topology under the options it is given.
type engineRun struct {
	name string
	run  func(cluster.Options) (*cluster.TopologyResult, error)
}

// everyEngine lists Run, a one-variant RunBroadcast and RunPipelined at
// each of the shard counts, each replaying spec through topo.
func everyEngine(spec cluster.GenSpec, topo cluster.Topology, shards ...int) []engineRun {
	engines := []engineRun{
		{"run", func(opts cluster.Options) (*cluster.TopologyResult, error) {
			return cluster.Run(cluster.Stream(spec), topo, opts)
		}},
		{"broadcast", func(opts cluster.Options) (*cluster.TopologyResult, error) {
			res, err := cluster.RunBroadcast(cluster.Stream(spec),
				[]cluster.Variant{{Label: topo.Name, Topology: topo, Opts: opts}}, 0)
			if err != nil {
				return nil, err
			}
			return res[0], nil
		}},
	}
	for _, n := range shards {
		engines = append(engines, engineRun{fmt.Sprintf("pipelined-%d", n),
			func(opts cluster.Options) (*cluster.TopologyResult, error) {
				return cluster.RunPipelined(cluster.GenShards(spec), topo, opts, n)
			}})
	}
	return engines
}

// TestAggregatesDeriveFromCells: every engine adds a served request to
// one (tier, class) cell and derives the coarser digests at harvest, so
// on every engine and in both summary modes the run aggregate is the
// merge of the tiers, and a classed tier the merge of its classes, bit
// for bit. Every digest of the result is in the run's mode: Bounded
// from Options' zero Summary, Exact when named.
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
			for _, e := range everyEngine(spec, topo, 1, 4) {
				res, err := e.run(opts)
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

// manySiteTopology is the many-site probe topology: a 1-server edge
// station per site, backed by a 64-server central-queue cloud that
// takes every request whose home station already holds three.
func manySiteTopology(sites int) cluster.Topology {
	cloudPath := netem.CloudTypical
	return cluster.Topology{
		Name: "many-sites",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "cloud", Sites: 1, ServersPerSite: 64, Path: cloudPath,
				Dispatch: cluster.CentralQueueDispatch},
		},
		Spills: []cluster.SpillEdge{
			{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloudPath},
		},
	}
}

// TestManySiteHeapPerSite fails when a many-site run without per-site
// latency keeps more state per station. It replays 10⁴ sites at 8 req/s
// for 2.5 s (about 20 requests per site) through the serial Run and
// through RunPipelined on 2 shards, and reads, per site, the bytes the
// run allocated and the heap its result still holds after a GC.
//
// Every station of a tier adds its waits to the tier's one wait digest
// (on a sharded run, its shard's), so a station keeps no wait sketch of
// its own, and every engine keeps one end-to-end cell per (tier, class).
// Measured on go1.24/amd64: Run 1,762 B allocated (1,838 B under -race)
// and 156 B retained per site; RunPipelined at 2 shards 1,972 B
// allocated (2,049 B under -race), 1.12× Run's, and 155 B retained.
// With a wait digest per station Run allocated 4,811 B and retained
// 1,516 B per site. Most of what is retained is the result's site rows.
func TestManySiteHeapPerSite(t *testing.T) {
	const sites = 10_000
	spec := cluster.GenSpec{Sites: sites, Duration: 2.5, PerSiteRate: 8, Seed: 97}
	opts := cluster.Options{Seed: 98, NoPerSiteLatency: true}
	topo := manySiteTopology(sites)
	for _, tc := range []struct {
		name                        string
		run                         func() (*cluster.TopologyResult, error)
		allocCeiling, retainCeiling float64
	}{
		{"run", func() (*cluster.TopologyResult, error) {
			return cluster.Run(cluster.Stream(spec), topo, opts)
		}, 2300, 250},
		{"pipelined-2", func() (*cluster.TopologyResult, error) {
			return cluster.RunPipelined(cluster.GenShards(spec), topo, opts, 2)
		}, 2100, 250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after, held runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := tc.run()
			runtime.ReadMemStats(&after)
			runtime.GC()
			runtime.ReadMemStats(&held)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tiers[0].Spilled == 0 || res.Completed < 15*sites {
				t.Fatalf("spilled %d, completed %d: the probe exercises too little", res.Tiers[0].Spilled, res.Completed)
			}
			allocated := float64(after.TotalAlloc-before.TotalAlloc) / sites
			retained := (float64(held.HeapAlloc) - float64(before.HeapAlloc)) / sites
			runtime.KeepAlive(res)
			t.Logf("%.0f B allocated, %.0f B retained per site", allocated, retained)
			if allocated > tc.allocCeiling {
				t.Errorf("%.0f B allocated per site, ceiling %.0f B: a station keeps wait state the tier digest should hold",
					allocated, tc.allocCeiling)
			}
			if retained > tc.retainCeiling {
				t.Errorf("%.0f B retained per site, ceiling %.0f B: a station keeps wait state the tier digest should hold",
					retained, tc.retainCeiling)
			}
		})
	}
}

// TestWaitConservation: on every engine, with and without per-site
// latency, a tier's wait digest holds one wait per request it served and
// the run's one per completed request, whether each station keeps its
// own wait digest or the tier keeps one for all of them, and both hold
// the same waits. With per-site latency the site rows' waits add up to
// their tier's; without it no site row carries a digest. The topology spills from a home-routed
// edge into a load-balanced cloud pool whose stations drop past a
// one-request queue.
func TestWaitConservation(t *testing.T) {
	topo := cluster.Topology{
		Name: "spill-into-pool",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.EdgePath},
			{Name: "cloud", Sites: 4, ServersPerSite: 1, Path: netem.CloudTypical,
				Dispatch: lb.PolicyRoundRobin, QueueCap: 1},
		},
		Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 2, DetourRTT: 0.02}},
	}
	spec := cluster.GenSpec{Sites: 5, Duration: 120, PerSiteRate: 14, Seed: 5}
	engines := everyEngine(spec, topo, 1, 2, 4)
	for _, warmup := range []float64{0, 15} {
		withSites := map[string]*cluster.TopologyResult{} // per engine, per-site latency reported
		for _, noPerSite := range []bool{false, true} {
			opts := cluster.Options{Warmup: warmup, Seed: 6, NoPerSiteLatency: noPerSite}
			for _, e := range engines {
				label := fmt.Sprintf("%s warmup %v noPerSite %v", e.name, warmup, noPerSite)
				res, err := e.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if cloud := res.Tier("cloud"); res.Tiers[0].Spilled == 0 || cloud.Dropped == 0 || cloud.Served == 0 {
					t.Fatalf("%s: edge spilled %d, cloud dropped %d, served %d: the load exercises too little",
						label, res.Tiers[0].Spilled, cloud.Dropped, cloud.Served)
				}
				if got := uint64(res.Wait.N()); got != res.Completed {
					t.Errorf("%s: run wait holds %d, completed %d", label, got, res.Completed)
				}
				for i := range res.Tiers {
					tr := &res.Tiers[i]
					if got := uint64(tr.Wait.N()); got != tr.Served {
						t.Errorf("%s: tier %s wait holds %d, served %d", label, tr.Name, got, tr.Served)
					}
					var siteWaits uint64
					for j := range tr.Sites {
						n, m := tr.Sites[j].Wait.N(), tr.Sites[j].EndToEnd.N()
						siteWaits += uint64(n)
						if noPerSite && (n != 0 || m != 0) {
							t.Errorf("%s: tier %s site %d holds %d waits and %d latencies without per-site latency",
								label, tr.Name, j, n, m)
						}
					}
					if !noPerSite && siteWaits != tr.Served {
						t.Errorf("%s: tier %s site rows hold %d waits, served %d", label, tr.Name, siteWaits, tr.Served)
					}
				}
				if !noPerSite {
					withSites[e.name] = res
					continue
				}
				// The same waits either way, so the same digests.
				ref := withSites[e.name]
				sameWaits(t, label+" run", &res.Wait, &ref.Wait)
				for i := range res.Tiers {
					sameWaits(t, label+" tier "+res.Tiers[i].Name, &res.Tiers[i].Wait, &ref.Tiers[i].Wait)
				}
			}
		}
	}
}

// sameWaits fails t unless two wait digests hold the same observations:
// equal counts, quantiles and means.
func sameWaits(t *testing.T, label string, got, want *stats.Digest) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: wait holds %d, with per-site latency %d", label, got.N(), want.N())
	}
	for _, q := range digestProbes {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Errorf("%s: wait q=%v %v, with per-site latency %v", label, q, g, w)
		}
	}
	if g, w := got.Mean(), want.Mean(); math.Float64bits(g) != math.Float64bits(w) {
		t.Errorf("%s: wait mean %v, with per-site latency %v", label, g, w)
	}
}
