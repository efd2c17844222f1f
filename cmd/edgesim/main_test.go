package main

import (
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
