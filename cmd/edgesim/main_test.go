package main

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/netem"
	"repro/internal/trace"
)

// checkFlagsCase is one checkFlags call: the run's context, the graph
// and -sites it runs with, the flags set, and the error expected.
type checkFlagsCase struct {
	name  string
	run   contexts
	topo  cluster.Topology
	sites int
	set   []string // flags given on the command line
	want  string   // error substring; "" = accepted
}

// runCheckFlagsCases runs each case through checkFlags, with -servers
// at its default 1 and -autoscale-max at 0: an accepted case must pass,
// a rejected one must fail with an error naming the flag.
func runCheckFlagsCases(t *testing.T, cases []checkFlagsCase) {
	t.Helper()
	for _, tc := range cases {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkFlags(tc.run, set, tc.topo, tc.sites, 1, 0)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want+" ") {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckTopologyFlags: in a -topology run, a flag the graph run does
// not read is an error naming it, and so are the value combinations a
// graph run cannot honor; everything else passes.
func TestCheckTopologyFlags(t *testing.T) {
	preset, ok := cluster.PresetTopology("edge-regional-cloud")
	if !ok {
		t.Fatal("edge-regional-cloud preset missing")
	}
	home := preset.Tiers[0].Sites
	pooled := cluster.Topology{Name: "pooled", Tiers: []cluster.Tier{cluster.CloudTier(10, netem.CloudTypical, "")}}
	threeServers := preset
	threeServers.Tiers = slices.Clone(preset.Tiers)
	threeServers.Tiers[0].ServersPerSite = 3
	noServers := cluster.Topology{Name: "no-servers", Tiers: []cluster.Tier{{Name: "edge", Sites: 5, Path: netem.EdgePath}}}
	runCheckFlagsCases(t, []checkFlagsCase{
		{"defaults", topologyGen, preset, 5, nil, ""},
		{"default-sites-flag-ignored", topologyGen, preset, 20, nil, ""},
		{"explicit-matching-sites", topologyGen, preset, home, []string{"sites"}, ""},
		{"explicit-disagreeing-sites", topologyGen, preset, home + 1, []string{"sites"}, "-sites"},
		{"skew", topologyGen, preset, 5, []string{"skew"}, "-skew"},
		{"skew-and-sites", topologyGen, preset, 20, []string{"skew", "sites"}, "-skew"},
		{"dispatcher-ingress-takes-sites", topologyGen, pooled, 20, []string{"sites"}, ""},
		{"default-servers-flag-ignored", topologyGen, threeServers, 5, nil, ""},
		{"explicit-disagreeing-servers", topologyGen, threeServers, 5, []string{"servers"}, "-servers"},
		{"tier-without-servers-takes-flag", topologyGen, noServers, 5, []string{"servers"}, ""},
		{"dispatcher-ingress-takes-servers", topologyGen, pooled, 20, []string{"sites", "servers"}, ""},
		{"dispatcher-ingress-rejects-skew", topologyGen, pooled, 2, []string{"skew", "sites"}, "-skew"},
		{"policy", topologyGen, preset, 5, []string{"policy"}, "-policy"},
		{"pooled-rejects-policy", topologyGen, pooled, 20, []string{"sites", "policy"}, "-policy"},
		{"topology-flags-accepted", topologyGen, preset, 5, []string{"rate", "servers", "shards", "admit"}, ""},
		{"autoscale-max-without-scaler", topologyGen, preset, 5, []string{"autoscale-max"}, "-scaler"},
		{"pooled-autoscale-max-without-scaler", topologyGen, pooled, 20, []string{"sites", "autoscale-max"}, "-scaler"},
		{"autoscale-max-bounds-scaler", topologyGen, preset, 5, []string{"autoscale-max", "scaler"}, ""},
		{"sweep-autoscale-max-without-scaler", sweepGen, preset, 5, []string{"sweep", "autoscale-max"}, "-scaler"},
		{"paired-autoscale-max-without-scaler", pairedGen, cluster.Topology{}, 5, []string{"autoscale-max"}, "-scaler"},
		{"paired-autoscale-max-bounds-scaler", pairedGen, cluster.Topology{}, 5, []string{"autoscale-max", "scaler"}, ""},
	})
	// A negative -autoscale-max used to mean "unset" (4x bounds) in
	// every mode.
	set := map[string]bool{"scaler": true, "autoscale-max": true}
	for _, run := range []contexts{pairedGen, topologyGen, sweepGen} {
		err := checkFlags(run, set, preset, 5, 1, -3)
		if err == nil || !strings.Contains(err.Error(), "-autoscale-max ") {
			t.Errorf("%s run, -autoscale-max -3: error %v, want one naming -autoscale-max", run, err)
		}
	}
}

// TestParseAdmitSpec: -admit decodes through admit.Spec's JSON tags, so
// it takes exactly a spec file's admission keys and number types.
func TestParseAdmitSpec(t *testing.T) {
	got, err := parseAdmitSpec("priority:threshold=4,cutoff=1")
	if want := (admit.Spec{Policy: admit.Priority, Threshold: 4, Cutoff: 1}); err != nil || got != want {
		t.Errorf("priority:threshold=4,cutoff=1 = %+v, %v; want %+v", got, err, want)
	}
	got, err = parseAdmitSpec("token-bucket:rate=6.5,burst=3")
	if want := (admit.Spec{Policy: admit.TokenBucket, Rate: 6.5, Burst: 3}); err != nil || got != want {
		t.Errorf("token-bucket:rate=6.5,burst=3 = %+v, %v; want %+v", got, err, want)
	}
	for _, arg := range []string{
		"token-bucket:rate=6,bust=3",       // unknown key
		"queue-length:threshold=2.5",       // not an int
		"token-bucket:rate=fast",           // not a number
		"token-bucket:rate",                // not key=value
		"queue-length:policy=token-bucket", // the policy is not a parameter
		"leaky-bucket:rate=6",              // unknown policy
		"token-bucket:rate=6,burst=-1",     // Validate
	} {
		if spec, err := parseAdmitSpec(arg); err == nil {
			t.Errorf("%s: accepted as %+v", arg, spec)
		}
	}
}

// TestCheckGridFlags: in a -grid run, every flag the grid would ignore
// is an error naming itself; the grid's own flags pass.
func TestCheckGridFlags(t *testing.T) {
	runCheckFlagsCases(t, []checkFlagsCase{
		{"grid-defaults", gridGen, cluster.Topology{}, 5, nil, ""},
		{"grid-flags-accepted", gridGen, cluster.Topology{}, 5, []string{"grid-budgets", "grid-depths", "grid-reps", "sites",
			"duration", "warmup", "seed", "arrival-scv", "service-scv"}, ""},
		{"grid-skew", gridGen, cluster.Topology{}, 5, []string{"skew"}, "-skew"},
		{"grid-policy", gridGen, cluster.Topology{}, 5, []string{"policy"}, "-policy"},
		{"grid-scaler", gridGen, cluster.Topology{}, 5, []string{"scaler"}, "-scaler"},
		{"grid-autoscale-max", gridGen, cluster.Topology{}, 5, []string{"autoscale-max"}, "-autoscale-max"},
		{"grid-scenario", gridGen, cluster.Topology{}, 5, []string{"scenario"}, "-scenario"},
		{"grid-servers", gridGen, cluster.Topology{}, 5, []string{"servers"}, "-servers"},
		{"grid-rate", gridGen, cluster.Topology{}, 5, []string{"rate"}, "-rate"},
		{"grid-topology", gridGen, cluster.Topology{}, 5, []string{"topology"}, "-topology"},
		{"grid-sweep", gridGen, cluster.Topology{}, 5, []string{"sweep"}, "-sweep"},
		{"grid-trace", gridGen, cluster.Topology{}, 5, []string{"trace"}, "-trace"},
		{"grid-azure", gridGen, cluster.Topology{}, 5, []string{"azure"}, "-azure"},
		{"grid-shards", gridGen, cluster.Topology{}, 5, []string{"shards"}, "-shards"},
		{"grid-v", gridGen, cluster.Topology{}, 5, []string{"v"}, "-v"},
	})
}

// TestCheckFlags: in the paired, sweep, trace and compile contexts, a
// flag set on the command line that the run's context does not read is
// an error naming it; everything else passes.
func TestCheckFlags(t *testing.T) {
	preset, ok := cluster.PresetTopology("edge-regional-cloud")
	if !ok {
		t.Fatal("edge-regional-cloud preset missing")
	}
	runCheckFlagsCases(t, []checkFlagsCase{
		// Flags other modes read that a run ignored without a word.
		{"topology-scenario", topologyGen, preset, 5, []string{"topology", "scenario"}, "-scenario"},
		{"paired-grid-flags", pairedGen, cluster.Topology{}, 5, []string{"grid-reps", "grid-depths"}, "-grid-depths"},
		{"paired-azure-bin", pairedGen, cluster.Topology{}, 5, []string{"azure-bin"}, "-azure-bin"},
		{"trace-generator-flags", topologyTrace, preset, 5,
			[]string{"topology", "trace", "rate", "service-scv", "duration"}, "-duration"},
		{"compile-run-flags", compileTrace, cluster.Topology{}, 5,
			[]string{"trace", "compile", "rate", "scaler", "warmup"}, "-rate"},

		// The contexts the inline "requires -topology" checks covered.
		{"paired-shards", pairedGen, cluster.Topology{}, 5, []string{"shards"}, "-shards"},
		{"paired-admit", pairedGen, cluster.Topology{}, 5, []string{"admit"}, "-admit"},
		{"paired-sweep", pairedGen, cluster.Topology{}, 5, []string{"sweep"}, "-sweep"},
		{"paired-trace", pairedGen, cluster.Topology{}, 5, []string{"trace"}, "-trace"},
		{"sweep-reject-penalty", sweepGen, preset, 5, []string{"topology", "sweep", "reject-penalty"}, "-reject-penalty"},
		{"sweep-shards", sweepGen, preset, 5, []string{"topology", "sweep", "shards"}, "-shards"},
		{"paired-v", pairedGen, cluster.Topology{}, 5, []string{"v"}, "-v"},
		{"compile-topology", compileAzure, cluster.Topology{}, 5, []string{"azure", "compile", "topology"}, "-topology"},
		{"compile-azure-seed", compileAzure, cluster.Topology{}, 5, []string{"azure", "azure-bin", "compile", "seed"}, ""},
		{"compile-trace-seed", compileTrace, cluster.Topology{}, 5, []string{"trace", "compile", "seed"}, "-seed"},
		{"trace-sweep-accepted", sweepTrace, preset, 5, []string{"topology", "trace", "sweep", "warmup", "scenario"}, ""},
	})
}

// TestFlagTableCoversEveryFlag: the flag table and the registered flags
// name the same set, so no flag can bypass checkFlags, and every flag
// applies to at least one context a run can be in.
func TestFlagTableCoversEveryFlag(t *testing.T) {
	registered := map[string]bool{}
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags
		}
		registered[f.Name] = true
		if flagContexts[f.Name] == 0 {
			t.Errorf("flag -%s is missing from flagContexts", f.Name)
		}
	})
	for name, where := range flagContexts {
		if !registered[name] {
			t.Errorf("flagContexts names -%s, which is not a registered flag", name)
		}
		if where&^validRuns != 0 {
			t.Errorf("flagContexts gives -%s a context no run can be in: %b", name, where&^validRuns)
		}
	}
}

// TestContextsString: the applies-to lists name whole modes, and
// qualify a mode by workload only when the flag reads some of them.
func TestContextsString(t *testing.T) {
	for _, tc := range []struct {
		cs   contexts
		want string
	}{
		{pairedGen, "paired"},
		{topologyTrace, "topology (-trace)"},
		{flagContexts["scenario"], "paired, sweep"},
		{flagContexts["rate"], "paired, topology (generated)"},
		{flagContexts["seed"], "paired, topology, sweep, grid, compile (-azure)"},
		{flagContexts["azure-bin"], "topology (-azure), sweep (-azure), compile (-azure)"},
		{flagContexts["compile"], "compile"},
	} {
		if got := tc.cs.String(); got != tc.want {
			t.Errorf("%b: got %q, want %q", tc.cs, got, tc.want)
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

// TestPrintSiteTablesIdleSiteZero: a replay whose trace has no site-0
// records leaves the entry tier's first site empty, yet that tier's
// table still shows per-site client latency, and the load-balanced
// cloud pool's still shows per-station queueing delay.
func TestPrintSiteTablesIdleSiteZero(t *testing.T) {
	topo := cluster.Topology{
		Name: "idle-site-zero",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: 3, ServersPerSite: 1, Path: netem.Constant("edge", 0.001)},
			cluster.CloudTier(2, netem.Constant("cloud", 0.025), "round-robin"),
		},
		Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 1}},
	}
	csv := "time,site,service\n"
	for i := range 200 {
		csv += fmt.Sprintf("%g,%d,0.12\n", 0.04*float64(i), 1+i%2)
	}
	res, err := cluster.Run(trace.StreamRequestsCSV(strings.NewReader(csv)), topo, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiers[1].Served == 0 {
		t.Fatal("the cloud pool served nothing; its table goes untested")
	}
	var out strings.Builder
	printSiteTables(&out, res.Tiers)
	tables := strings.Split(strings.TrimPrefix(out.String(), "\n"), "\n\n")
	if len(tables) != 2 {
		t.Fatalf("%d site tables, want 2:\n%s", len(tables), out.String())
	}
	for i, want := range []string{"mean (ms)  p95 (ms)", "wait mean (ms)"} {
		header, _, _ := strings.Cut(tables[i], "\n")
		if !strings.Contains(header, want) || (i == 0 && strings.Contains(header, "wait")) {
			t.Errorf("table %d header %q, want %q columns", i, header, want)
		}
	}
}
