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
		name     string
		topo     cluster.Topology
		skew     string
		sites    int
		sitesSet bool
		want     string // error substring; "" = accepted
	}{
		{"defaults", preset, "", 5, false, ""},
		{"default-sites-flag-ignored", preset, "", 20, false, ""},
		{"explicit-matching-sites", preset, "", home, true, ""},
		{"explicit-disagreeing-sites", preset, "", home + 1, true, "-sites"},
		{"skew", preset, "8,4,2,1,1", 5, false, "-skew"},
		{"skew-and-sites", preset, "8,4,2,1,1", 20, true, "-skew"},
		{"dispatcher-ingress-takes-sites", pooled, "", 20, true, ""},
		{"dispatcher-ingress-rejects-skew", pooled, "1,1", 2, true, "-skew"},
	} {
		err := checkTopologyFlags(tc.topo, tc.skew, tc.sites, tc.sitesSet)
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
