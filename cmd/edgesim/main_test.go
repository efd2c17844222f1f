package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netem"
)

func TestCheckTopologyFlags(t *testing.T) {
	preset, ok := cluster.PresetTopology("edge-regional-cloud")
	if !ok {
		t.Fatal("edge-regional-cloud preset missing")
	}
	home := preset.Tiers[0].Sites
	pooled := cluster.Topology{Name: "pooled", Tiers: []cluster.Tier{cluster.CloudTier(10, netem.CloudTypical, "")}}
	for _, tc := range []struct {
		name  string
		topo  cluster.Topology
		skew  string
		sites int
		set   []string // flags given on the command line
		want  string   // error substring; "" = accepted
	}{
		{"defaults", preset, "", 5, nil, ""},
		{"default-sites-flag-ignored", preset, "", 20, nil, ""},
		{"explicit-matching-sites", preset, "", home, []string{"sites"}, ""},
		{"explicit-disagreeing-sites", preset, "", home + 1, []string{"sites"}, "-sites"},
		{"skew", preset, "8,4,2,1,1", 5, nil, "-skew"},
		{"skew-and-sites", preset, "8,4,2,1,1", 20, []string{"sites"}, "-skew"},
		{"dispatcher-ingress-takes-sites", pooled, "", 20, []string{"sites"}, ""},
		{"dispatcher-ingress-rejects-skew", pooled, "1,1", 2, []string{"sites"}, "-skew"},
		{"policy", preset, "", 5, []string{"policy"}, "-policy"},
		{"jockey", preset, "", 5, []string{"jockey"}, "-jockey"},
		{"detour-ms", preset, "", 5, []string{"detour-ms"}, "-detour-ms"},
		{"edge-slowdown", preset, "", 5, []string{"edge-slowdown"}, "-edge-slowdown"},
		{"queue-cap", preset, "", 5, []string{"queue-cap"}, "-queue-cap"},
		{"overflow-at", preset, "", 5, []string{"overflow-at"}, "-overflow-at"},
		{"pooled-rejects-policy", pooled, "", 20, []string{"sites", "policy"}, "-policy"},
		{"topology-flags-accepted", preset, "", 5, []string{"rate", "servers", "shards", "admit"}, ""},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkTopologyFlags(tc.topo, tc.skew, tc.sites, set)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckGridFlags: every flag -grid would ignore is an error naming
// it; the flags the grid reads pass.
func TestCheckGridFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  []string
		want string // error substring; "" = accepted
	}{
		{"defaults", nil, ""},
		{"grid-flags-accepted", []string{"grid-budgets", "grid-depths", "grid-reps", "sites", "duration",
			"warmup", "seed", "arrival-scv", "service-scv", "summary", "gen-workers", "v"}, ""},
		{"skew", []string{"skew"}, "-skew"},
		{"policy", []string{"policy"}, "-policy"},
		{"jockey", []string{"jockey"}, "-jockey"},
		{"detour-ms", []string{"detour-ms"}, "-detour-ms"},
		{"edge-slowdown", []string{"edge-slowdown"}, "-edge-slowdown"},
		{"queue-cap", []string{"queue-cap"}, "-queue-cap"},
		{"overflow-at", []string{"overflow-at"}, "-overflow-at"},
		{"scaler", []string{"scaler"}, "-scaler"},
		{"autoscale-max", []string{"autoscale-max"}, "-autoscale-max"},
		{"scenario", []string{"scenario"}, "-scenario"},
		{"servers", []string{"servers"}, "-servers"},
		{"rate", []string{"rate"}, "-rate"},
		{"topology", []string{"topology"}, "-topology"},
		{"sweep", []string{"sweep"}, "-sweep"},
		{"trace", []string{"trace"}, "-trace"},
		{"azure", []string{"azure"}, "-azure"},
		{"shards", []string{"shards"}, "-shards"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkGridFlags(set)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckGenFlags: numbers no workload can be generated from are
// errors naming the flag, including the NaN and infinite values that
// pass a plain "<= 0" test and a -warmup that leaves nothing to measure.
func TestCheckGenFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	type flags struct {
		sites, servers                                 int
		rate, duration, warmup, arrivalSCV, serviceSCV float64
	}
	ok := flags{5, 1, 8, 600, 60, 0.4, 0.5}
	for _, tc := range []struct {
		name string
		edit func(*flags)
		want string // error substring; "" = accepted
	}{
		{"defaults", func(*flags) {}, ""},
		{"zero-scvs", func(f *flags) { f.arrivalSCV, f.serviceSCV = 0, 0 }, ""},
		{"negative-warmup", func(f *flags) { f.warmup = -1 }, ""},
		{"zero-sites", func(f *flags) { f.sites = 0 }, "-sites"},
		{"zero-servers", func(f *flags) { f.servers = 0 }, "-servers"},
		{"nan-rate", func(f *flags) { f.rate = nan }, "-rate"},
		{"inf-rate", func(f *flags) { f.rate = inf }, "-rate"},
		{"zero-rate", func(f *flags) { f.rate = 0 }, "-rate"},
		{"nan-duration", func(f *flags) { f.duration = nan }, "-duration"},
		{"negative-duration", func(f *flags) { f.duration = -5 }, "-duration"},
		{"inf-duration", func(f *flags) { f.duration = inf }, "-duration"},
		{"warmup-equals-duration", func(f *flags) { f.warmup = f.duration }, "-warmup"},
		{"warmup-past-duration", func(f *flags) { f.warmup = 2 * f.duration }, "-warmup"},
		{"nan-warmup", func(f *flags) { f.warmup = nan }, "-warmup"},
		{"nan-arrival-scv", func(f *flags) { f.arrivalSCV = nan }, "-arrival-scv"},
		{"negative-arrival-scv", func(f *flags) { f.arrivalSCV = -1 }, "-arrival-scv"},
		{"inf-service-scv", func(f *flags) { f.serviceSCV = inf }, "-service-scv"},
	} {
		f := ok
		tc.edit(&f)
		err := checkGenFlags(f.sites, f.servers, f.rate, f.duration, f.warmup, f.arrivalSCV, f.serviceSCV)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestParseWeightsRejectsBadNumbers: -skew weights that cannot form a
// partition are errors naming the flag, not a panic or a hang.
func TestParseWeightsRejectsBadNumbers(t *testing.T) {
	for _, s := range []string{"NaN,1,1", "-1,1,1", "Inf,1,1", "0,0,0", "1,x,1", "1,1"} {
		if _, err := parseWeights(s, 3); err == nil || !strings.Contains(err.Error(), "-skew") {
			t.Errorf("parseWeights(%q): error %v, want one naming -skew", s, err)
		}
	}
	if _, err := parseWeights("5,0,1", 3); err != nil {
		t.Errorf("parseWeights(5,0,1): %v", err)
	}
}
