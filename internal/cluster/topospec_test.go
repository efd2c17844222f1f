package cluster

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/autoscale"
)

// scalerSpecJSON is a two-tier topology exercising the new scaler
// block: a predictive edge tier and a reactive regional backstop.
const scalerSpecJSON = `{
	"name": "scaled",
	"tiers": [
		{
			"name": "edge", "sites": 3, "servers": 1, "rttMs": 1, "jitterMs": 0.2,
			"scaler": {
				"policy": "predictive", "intervalS": 5, "min": 1, "max": 6,
				"mu": 13, "targetUtil": 0.7, "forecaster": "holt",
				"alpha": 0.6, "beta": 0.4
			},
			"pricePerServerHour": 0.25
		},
		{
			"name": "regional", "sites": 1, "servers": 2, "rttMs": 13,
			"dispatch": "central-queue",
			"scaler": {
				"policy": "reactive", "intervalS": 5, "min": 2, "max": 8,
				"up": 1.5, "down": 0.3, "cooldownS": 15
			}
		}
	],
	"spills": [{"from": "edge", "to": "regional", "threshold": 3, "sampleToRtt": true}]
}`

func TestTopologySpecScalerBlockBuilds(t *testing.T) {
	topo, err := ParseTopology([]byte(scalerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	edge := topo.Tiers[0]
	if edge.Scaler == nil || edge.Scaler.Policy != autoscale.PolicyPredictive {
		t.Fatalf("edge scaler = %+v, want predictive", edge.Scaler)
	}
	if edge.Scaler.Forecaster != "holt" || edge.Scaler.Alpha != 0.6 || edge.Scaler.Beta != 0.4 {
		t.Errorf("edge forecaster params lost: %+v", edge.Scaler)
	}
	if edge.PricePerServerHour != 0.25 {
		t.Errorf("edge price = %v, want 0.25", edge.PricePerServerHour)
	}
	reg := topo.Tiers[1]
	if reg.Scaler == nil || reg.Scaler.Policy != autoscale.PolicyReactive ||
		reg.Scaler.UpThreshold != 1.5 {
		t.Errorf("regional scaler = %+v, want reactive up=1.5", reg.Scaler)
	}
}

// TestTopologySpecRoundTrip: marshal → parse must be lossless for every
// preset and for the scaler exemplar — the codec is the file format.
func TestTopologySpecRoundTrip(t *testing.T) {
	specs := map[string]TopologySpec{}
	for name, s := range presetSpecs {
		specs[name] = s
	}
	parsed, err := ParseTopologySpec([]byte(scalerSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	specs["scaler-exemplar"] = parsed
	for name, spec := range specs {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		back, err := ParseTopologySpec(data)
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: round trip diverges:\n  out:  %+v\n  back: %+v", name, spec, back)
		}
	}
}

// admitSpecJSON exercises the admission block: a rate-limited edge and
// a queue-gated cloud with a class-aware priority rule.
const admitSpecJSON = `{
	"name": "admitted",
	"tiers": [
		{
			"name": "edge", "sites": 3, "servers": 1, "rttMs": 1, "jitterMs": 0.2,
			"admission": {"policy": "token-bucket", "rate": 6, "burst": 3}
		},
		{
			"name": "cloud", "sites": 1, "servers": 3, "rttMs": 25,
			"dispatch": "central-queue",
			"admission": {"policy": "priority", "threshold": 4, "cutoff": 1}
		}
	],
	"spills": [{"from": "edge", "to": "cloud", "threshold": 3, "sampleToRtt": true}],
	"classes": [{"name": "gold", "sites": [0], "tier": "cloud"}]
}`

func TestTopologySpecAdmissionBlockBuilds(t *testing.T) {
	topo, err := ParseTopology([]byte(admitSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	edge := topo.Tiers[0]
	if edge.Admission == nil || edge.Admission.Policy != admit.TokenBucket ||
		edge.Admission.Rate != 6 || edge.Admission.Burst != 3 {
		t.Fatalf("edge admission = %+v, want token-bucket rate=6 burst=3", edge.Admission)
	}
	cloud := topo.Tiers[1]
	if cloud.Admission == nil || cloud.Admission.Policy != admit.Priority ||
		cloud.Admission.Threshold != 4 || cloud.Admission.Cutoff != 1 {
		t.Fatalf("cloud admission = %+v, want priority threshold=4 cutoff=1", cloud.Admission)
	}
}

func TestTopologySpecAdmissionRoundTrip(t *testing.T) {
	spec, err := ParseTopologySpec([]byte(admitSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTopologySpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip diverges:\n  out:  %+v\n  back: %+v", spec, back)
	}
}

func TestTopologySpecUnknownAdmissionPolicy(t *testing.T) {
	spec := `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
		"admission":{"policy":"leaky-bucket","rate":5}}]}`
	if _, err := ParseTopology([]byte(spec)); err == nil {
		t.Fatal("unknown admission policy accepted")
	} else if !strings.Contains(err.Error(), "leaky-bucket") ||
		!strings.Contains(err.Error(), admit.TokenBucket) {
		t.Errorf("error %q should name the bad policy and list the registry", err)
	}
}

func TestTopologySpecAdmissionBadParams(t *testing.T) {
	for name, spec := range map[string]string{
		"zero rate": `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
			"admission":{"policy":"token-bucket"}}]}`,
		"no threshold": `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
			"admission":{"policy":"queue-length"}}]}`,
		"negative cutoff": `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
			"admission":{"policy":"priority","threshold":2,"cutoff":-1}}]}`,
	} {
		if _, err := ParseTopology([]byte(spec)); err == nil {
			t.Errorf("%s: invalid admission block accepted", name)
		}
	}
}

func TestTopologySpecUnknownScalerPolicy(t *testing.T) {
	spec := `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
		"scaler":{"policy":"oracle","intervalS":5,"min":1,"max":2}}]}`
	if _, err := ParseTopology([]byte(spec)); err == nil {
		t.Fatal("unknown scaler policy accepted")
	} else if !strings.Contains(err.Error(), "oracle") || !strings.Contains(err.Error(), "reactive") {
		t.Errorf("error %q should name the bad policy and list the registry", err)
	}
}

func TestTopologySpecUnknownForecaster(t *testing.T) {
	spec := `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
		"scaler":{"policy":"predictive","intervalS":5,"min":1,"max":2,
		"mu":13,"targetUtil":0.7,"forecaster":"crystal-ball"}}]}`
	if _, err := ParseTopology([]byte(spec)); err == nil {
		t.Fatal("unknown forecaster accepted")
	} else if !strings.Contains(err.Error(), "crystal-ball") {
		t.Errorf("error %q should name the bad forecaster", err)
	}
}

// TestTopologySpecScalerUnreadFields: a scaler block carrying a
// parameter its policy never reads, or a negative step or cooldown,
// fails to build with an error naming the field instead of dropping it.
func TestTopologySpecScalerUnreadFields(t *testing.T) {
	const reactive = `"policy":"reactive","intervalS":5,"min":1,"max":4,"up":1.5,"down":0.3`
	const predictive = `"policy":"predictive","intervalS":5,"min":1,"max":4,"mu":13,"targetUtil":0.7`
	for _, tc := range []struct{ block, want string }{
		{reactive + `,"mu":13`, "Mu"},
		{reactive + `,"targetUtil":0.7`, "TargetUtil"},
		{reactive + `,"forecaster":"holt"`, "Forecaster"},
		{reactive + `,"horizon":4`, "Horizon"},
		{reactive + `,"alpha":0.6`, "Alpha"},
		{reactive + `,"beta":0.4`, "Beta"},
		{reactive + `,"step":-1`, "Step"},
		{reactive + `,"cooldownS":-15`, "Cooldown"},
		{predictive + `,"up":1.5`, "UpThreshold"},
		{predictive + `,"down":0.3`, "DownThreshold"},
		{predictive + `,"cooldownS":15`, "Cooldown"},
		{predictive + `,"step":2`, "Step"},
	} {
		spec := `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,"scaler":{` + tc.block + `}}]}`
		if _, err := ParseTopology([]byte(spec)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("scaler {%s}: error %v, want one naming %s", tc.block, err, tc.want)
		}
	}
}

func TestTopologySpecRejectsBothScalerBlocks(t *testing.T) {
	spec := `{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
		"autoscale":{"intervalS":5,"min":1,"max":2,"up":1.5,"down":0.3,"cooldownS":15},
		"scaler":{"policy":"reactive","intervalS":5,"min":1,"max":2,"up":1.5,"down":0.3}}]}`
	if _, err := ParseTopology([]byte(spec)); err == nil || !strings.Contains(err.Error(), "autoscale") {
		t.Fatalf("tier with both autoscale and scaler blocks: error %v, want one naming the retired block", err)
	}
}

// TestLegacyAutoscaleBlockRejected: the retired reactive-only
// "autoscale" block fails loudly as an unknown field instead of
// decoding; the "scaler" block with policy "reactive" replaces it.
func TestLegacyAutoscaleBlockRejected(t *testing.T) {
	legacy := `{"name":"x","tiers":[{"name":"e","sites":2,"servers":1,"rttMs":1,
		"autoscale":{"intervalS":2,"min":1,"max":5,"up":1.5,"down":0.2,"cooldownS":6,"step":2}}]}`
	if _, err := ParseTopology([]byte(legacy)); err == nil || !strings.Contains(err.Error(), "autoscale") {
		t.Fatalf("legacy autoscale block: error %v, want one naming the unknown field", err)
	}
	modern := `{"name":"x","tiers":[{"name":"e","sites":2,"servers":1,"rttMs":1,
		"scaler":{"policy":"reactive","intervalS":2,"min":1,"max":5,"up":1.5,"down":0.2,"cooldownS":6,"step":2}}]}`
	mt, err := ParseTopology([]byte(modern))
	if err != nil {
		t.Fatal(err)
	}
	want := autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 5,
		UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6, Step: 2}
	if mt.Tiers[0].Scaler == nil || *mt.Tiers[0].Scaler != want {
		t.Errorf("scaler block builds %+v, want %+v", mt.Tiers[0].Scaler, want)
	}
}

// everyKeySpecJSON sets every admission, scaler and class key to a
// distinct non-zero value: a reactive edge with a token bucket, and a
// predictive cloud.
const everyKeySpecJSON = `{
	"name": "every-key",
	"tiers": [
		{
			"name": "edge", "sites": 3, "servers": 1, "rttMs": 1,
			"scaler": {"policy": "reactive", "intervalS": 2, "min": 1, "max": 7,
				"up": 1.25, "down": 0.125, "cooldownS": 9, "step": 3},
			"admission": {"policy": "token-bucket", "rate": 6.5, "burst": 4.5, "threshold": 5, "cutoff": 2}
		},
		{
			"name": "cloud", "sites": 1, "servers": 3, "rttMs": 25, "dispatch": "central-queue",
			"scaler": {"policy": "predictive", "intervalS": 4, "min": 3, "max": 11, "mu": 13.5,
				"targetUtil": 0.65, "forecaster": "holt", "horizon": 6, "alpha": 0.375, "beta": 0.25}
		}
	],
	"classes": [{"name": "gold", "sites": [2, 0], "fraction": 0.75, "tier": "cloud"}]
}`

// TestTopologySpecEveryKeyLands: each JSON key of an admission, scaler
// or class block lands in its own field of the built Topology, so a
// tag typo (a key decoding into the wrong field, or none) fails here.
func TestTopologySpecEveryKeyLands(t *testing.T) {
	topo, err := ParseTopology([]byte(everyKeySpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	edge, cloud := topo.Tiers[0], topo.Tiers[1]
	wantAdmit := admit.Spec{Policy: admit.TokenBucket, Rate: 6.5, Burst: 4.5, Threshold: 5, Cutoff: 2}
	if edge.Admission == nil || *edge.Admission != wantAdmit {
		t.Errorf("edge admission = %+v, want %+v", edge.Admission, wantAdmit)
	}
	wantReactive := autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 7,
		UpThreshold: 1.25, DownThreshold: 0.125, Cooldown: 9, Step: 3}
	if edge.Scaler == nil || *edge.Scaler != wantReactive {
		t.Errorf("edge scaler = %+v, want %+v", edge.Scaler, wantReactive)
	}
	wantPredictive := autoscale.Spec{Policy: autoscale.PolicyPredictive, Interval: 4, Min: 3, Max: 11,
		Mu: 13.5, TargetUtil: 0.65, Forecaster: "holt", Horizon: 6, Alpha: 0.375, Beta: 0.25}
	if cloud.Scaler == nil || *cloud.Scaler != wantPredictive {
		t.Errorf("cloud scaler = %+v, want %+v", cloud.Scaler, wantPredictive)
	}
	wantClasses := []ClassRule{{Name: "gold", Sites: []int{2, 0}, Fraction: 0.75, Tier: "cloud"}}
	if !reflect.DeepEqual(topo.Classes, wantClasses) {
		t.Errorf("classes = %+v, want %+v", topo.Classes, wantClasses)
	}
}

// TestPresetTopologySharesNothing: a built preset owns its blocks and
// slices, so mutating one leaves the next build of the preset as
// shipped.
func TestPresetTopologySharesNothing(t *testing.T) {
	hetero, _ := PresetTopology("hetero-paths")
	hetero.Tiers[1].Scaler.Max = 99
	if again, _ := PresetTopology("hetero-paths"); again.Tiers[1].Scaler.Max != 8 {
		t.Errorf("mutating a built preset's scaler changed the preset: Max = %d, want 8", again.Tiers[1].Scaler.Max)
	}
	hybrid, _ := PresetTopology("hybrid-pinned-cloud")
	hybrid.Classes[0].Sites[0] = 0
	if again, _ := PresetTopology("hybrid-pinned-cloud"); again.Classes[0].Sites[0] != 3 {
		t.Errorf("mutating a built preset's class sites changed the preset: %v, want [3 4]", again.Classes[0].Sites)
	}
}

// negativeDetourSpecJSON spills with a negative detour, which once
// panicked the engine ("sim: negative delay") instead of failing Build.
const negativeDetourSpecJSON = `{"name":"x","tiers":[{"name":"edge","sites":2,"servers":1,"rttMs":1},
	{"name":"cloud","sites":1,"servers":2,"rttMs":25,"dispatch":"central-queue"}],
	"spills":[{"from":"edge","to":"cloud","threshold":1,"detourMs":-30}]}`

// fuzzRunnable reports whether a built spec is small enough to run in
// one fuzz iteration: at most 64 sites and servers per tier (scaler
// bounds included), and scaler ticks no closer than 0.1 s.
func fuzzRunnable(s TopologySpec) bool {
	for _, ts := range s.Tiers {
		if ts.Sites > 64 || ts.Servers > 64 || slices.ContainsFunc(ts.PerSiteServers, func(n int) bool { return n > 64 }) {
			return false
		}
		if sc := ts.Scaler; sc != nil && (sc.Max > 64 || sc.Interval < 0.1) {
			return false
		}
	}
	return true
}

// FuzzParseTopologySpec: any bytes that decode must re-encode and
// decode to the same spec, and Build must never panic — the codec's
// error paths are total. Every spec that builds (and is small enough)
// then runs 20 simulated seconds of generated load: the run must not
// panic, and every request it takes from the source must be accounted
// for.
func FuzzParseTopologySpec(f *testing.F) {
	f.Add([]byte(scalerSpecJSON))
	f.Add([]byte(admitSpecJSON))
	for _, s := range presetSpecs {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","tiers":[{"name":"e","sites":1,"servers":1,"rttMs":1,
		"autoscale":{"intervalS":5,"min":1,"max":2,"up":1.5,"down":0.3,"cooldownS":15}}]}`))
	f.Add([]byte(`{"tiers":[]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(negativeDetourSpecJSON))
	f.Add([]byte(everyKeySpecJSON))
	// Every tier key the presets leave unset, on a jockeying edge that
	// spills to a load-balanced pool.
	f.Add([]byte(`{"name":"knobs","tiers":[{"name":"edge","sites":3,"servers":1,"perSiteServers":[1,2,1],
		"rttMs":1,"tailScv":2,"discipline":"lifo","queueCap":2,"slowdown":1.5,"jockey":1,"detourMs":5},
		{"name":"pool","sites":3,"servers":1,"rttMs":25,"jitterMs":3,"dispatch":"power-of-two","discipline":"sjf"}],
		"spills":[{"from":"edge","to":"pool","threshold":3,"detourMs":3}],
		"classes":[{"name":"half","fraction":0.5,"tier":"pool"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseTopologySpec(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("decoded spec fails to marshal: %v", err)
		}
		back, err := ParseTopologySpec(out)
		if err != nil {
			t.Fatalf("re-encoded spec fails to parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("round trip diverges:\n  out:  %+v\n  back: %+v", spec, back)
		}
		// Build may reject the spec, but must do so via error.
		topo, err := spec.Build()
		if err != nil || !fuzzRunnable(spec) {
			return
		}
		sites := 1
		if ingress := topo.Tiers[0]; ingress.homeRouted() {
			sites = ingress.Sites
		}
		res, err := Run(Stream(GenSpec{Sites: sites, Duration: 20, PerSiteRate: 12, Seed: 1}), topo, Options{Seed: 2})
		if err != nil {
			return
		}
		if res.Offered != res.Consumed {
			t.Errorf("offered %d != consumed %d", res.Offered, res.Consumed)
		}
	})
}
