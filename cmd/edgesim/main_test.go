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
		{"autoscale-max-without-scaler", preset, "", 5, []string{"autoscale-max"}, "-scaler"},
		{"pooled-autoscale-max-without-scaler", pooled, "", 20, []string{"sites", "autoscale-max"}, "-scaler"},
		{"autoscale-max-bounds-scaler", preset, "", 5, []string{"autoscale-max", "scaler"}, ""},
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

// TestCheckSpan: a recorded workload whose replay ends at or before
// -warmup, or holds no requests, is an error naming -warmup and the
// span instead of a table of zeros.
func TestCheckSpan(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n            uint64
		span, warmup float64
		want         []string // error substrings; nil = accepted
	}{
		{"ends-after-warmup", 3, 61, 60, nil},
		{"negative-warmup", 3, 1, -1, nil},
		{"ends-before-warmup", 3, 1.05, 60, []string{"-warmup 60", "1.05s span"}},
		{"ends-at-warmup", 3, 60, 60, []string{"-warmup 60", "60s span"}},
		{"empty", 0, 0, 60, []string{"-warmup 60", "0s span"}},
		{"empty-negative-warmup", 0, 0, -1, []string{"no requests"}},
		{"nan-warmup", 3, 100, math.NaN(), []string{"-warmup NaN"}},
	} {
		err := checkSpan("trace tiny.csv", tc.n, tc.span, tc.warmup)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, w)
			}
		}
	}
}

// TestCheckSweepSpans: a sweep rescales a recorded trace onto each
// rate, so the span check applies per point — a rate fast enough to
// squeeze the trace inside -warmup is an error naming that rate.
func TestCheckSweepSpans(t *testing.T) {
	preset, ok := cluster.PresetTopology("edge-regional-cloud")
	if !ok {
		t.Fatal("edge-regional-cloud preset missing")
	}
	// 300 requests over 10 s. The preset's 5 one-server edge sites turn
	// rate r into an aggregate 5r req/s, so the span is 60/r seconds.
	ws := workloadStats{n: 300, dur: 10, sites: 5, rate: 30}
	if err := checkSweepSpans("trace t.csv", ws, preset, []float64{6, 9}, 5); err != nil {
		t.Errorf("spans 10s and 6.7s past -warmup 5: %v", err)
	}
	err := checkSweepSpans("trace t.csv", ws, preset, []float64{6, 12, 24}, 5)
	if err == nil || !strings.Contains(err.Error(), "-warmup 5") || !strings.Contains(err.Error(), "at 12 req/s/server") {
		t.Errorf("rate 12 squeezes the trace into 5s: error %v, want one naming -warmup and the rate", err)
	}
}
