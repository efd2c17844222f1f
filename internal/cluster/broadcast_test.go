package cluster_test

// Broadcast replay must be observationally invisible: a variant fed
// from a broadcast ring replays the byte-identical record sequence —
// and therefore produces the bit-identical TopologyResult — that a
// fresh per-row source (the SourceFactory discipline) would have
// produced, for generator, CSV-decoded, and Azure-decoded sources,
// across exact/bounded summary modes, any ring size, and on the error
// path (a decoder failure fails every variant, as it fails a per-row
// run).

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// broadcastVariants is the comparison set: three deployments with
// distinct shapes and options, as a grid or policy comparison would
// run them.
func broadcastVariants(sites int, mode stats.Mode) []cluster.Variant {
	return []cluster.Variant{
		{Label: "spill", Topology: spillTopology(sites),
			Opts: cluster.Options{Seed: 5, Summary: mode}},
		{Label: "pure-edge", Topology: cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 2, Path: netem.EdgePath}}},
			Opts: cluster.Options{Seed: 6, Summary: mode, Warmup: 20}},
		{Label: "pooled-cloud", Topology: cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{
			cluster.CloudTier(2*sites, netem.CloudTypical, "")}},
			Opts: cluster.Options{Seed: 7, Summary: mode}},
	}
}

// broadcastSources returns one per-row source factory per source kind:
// each call must yield a fresh source over the identical record
// sequence, exactly as RunScalerComparison's streaming rows or a file
// sweep would derive them.
func broadcastSources(t *testing.T) map[string]func() cluster.Source {
	t.Helper()
	spec := func() cluster.GenSpec {
		return cluster.GenSpec{Sites: 3, Duration: 120, PerSiteRate: 10, Seed: 91}
	}
	var csvText strings.Builder
	if _, err := trace.WriteRequestsCSV(&csvText, cluster.Stream(spec())); err != nil {
		t.Fatalf("building CSV fixture: %v", err)
	}
	return map[string]func() cluster.Source{
		"generator": func() cluster.Source { return cluster.Stream(spec()) },
		"csv": func() cluster.Source {
			src := trace.StreamRequestsCSV(strings.NewReader(csvText.String()))
			src.LimitSites(3)
			return src
		},
		// csvFixture is a per-bin count file (3 sites x 4 bins), the
		// Azure interchange format.
		"azure": func() cluster.Source {
			return trace.StreamAzureCSV(strings.NewReader(csvFixture),
				trace.AzureStreamOptions{BinWidth: 30, Seed: 17})
		},
	}
}

// TestBroadcastMatchesPerRowSources: RunBroadcast results are
// bit-identical to serial per-row re-derivation for every source kind
// and summary mode.
func TestBroadcastMatchesPerRowSources(t *testing.T) {
	for kind, factory := range broadcastSources(t) {
		for _, mode := range []struct {
			label string
			mode  stats.Mode
		}{{"exact", stats.Exact}, {"bounded", stats.Bounded}} {
			t.Run(kind+"/"+mode.label, func(t *testing.T) {
				variants := broadcastVariants(3, mode.mode)
				want := make([]*cluster.TopologyResult, len(variants))
				for i, v := range variants {
					res, err := cluster.Run(factory(), v.Topology, v.Opts)
					if err != nil {
						t.Fatalf("per-row %s: %v", v.Label, err)
					}
					want[i] = res
				}
				got, err := cluster.RunBroadcast(factory(), variants, 0)
				if err != nil {
					t.Fatalf("RunBroadcast: %v", err)
				}
				if want[0].Offered == 0 {
					t.Fatal("no requests offered; test is vacuous")
				}
				for i, v := range variants {
					compareTopologyResults(t, kind+"/"+mode.label+"/"+v.Label, want[i], got[i])
				}
			})
		}
	}
}

// TestBroadcastSmallRingBackpressure: a tiny ring forces the producer
// to block on backpressure constantly; results must not change.
func TestBroadcastSmallRingBackpressure(t *testing.T) {
	factory := broadcastSources(t)["generator"]
	variants := broadcastVariants(3, stats.Bounded)
	want, err := cluster.RunBroadcast(factory(), variants, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.RunBroadcast(factory(), variants, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		compareTopologyResults(t, "ring4/"+v.Label, want[i], got[i])
	}
}

// TestBroadcastSurfacesSourceError: a decoder failure mid-stream must
// fail the broadcast run, exactly as it fails a per-row run — never
// return clean results over the decoded prefix.
func TestBroadcastSurfacesSourceError(t *testing.T) {
	var csvText strings.Builder
	if _, err := trace.WriteRequestsCSV(&csvText,
		cluster.Stream(cluster.GenSpec{Sites: 3, Duration: 60, PerSiteRate: 8, Seed: 92})); err != nil {
		t.Fatal(err)
	}
	// Corrupt the tail: truncate mid-row so the decoder errors after a
	// valid prefix.
	text := csvText.String()
	truncated := text[:len(text)*2/3]
	truncated = truncated[:strings.LastIndex(truncated, "\n")+1] + "not,a,row\n"
	factory := func() cluster.Source {
		return trace.StreamRequestsCSV(strings.NewReader(truncated))
	}
	variants := broadcastVariants(3, stats.Bounded)
	if _, err := cluster.Run(factory(), variants[0].Topology, variants[0].Opts); err == nil {
		t.Fatal("per-row run over the corrupt trace succeeded; fixture is broken")
	}
	if _, err := cluster.RunBroadcast(factory(), variants, 0); err == nil {
		t.Fatal("RunBroadcast returned clean results over a corrupt trace")
	}
}

// TestBroadcastVariantErrorDoesNotHang: a variant that fails validation
// detaches from the fan, so the producer and the healthy variants run
// to completion and the error surfaces with the variant's label.
func TestBroadcastVariantErrorDoesNotHang(t *testing.T) {
	factory := broadcastSources(t)["generator"]
	variants := broadcastVariants(3, stats.Bounded)
	variants = append(variants, cluster.Variant{
		Label:    "invalid",
		Topology: cluster.Topology{Name: "empty"}, // no tiers: Validate fails
		Opts:     cluster.Options{Seed: 9, Summary: stats.Bounded},
	})
	_, err := cluster.RunBroadcast(factory(), variants, 8)
	if err == nil {
		t.Fatal("RunBroadcast succeeded with an invalid variant")
	}
	if !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("error %q does not name the failing variant", err)
	}
}
