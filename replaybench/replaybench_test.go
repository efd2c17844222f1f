package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// smokeScale shrinks every workload's simulated duration for the smoke
// runs: a tenth of each replay, still above one chunk per source.
const smokeScale = 0.1

// benchmarkSpec is the slice of BENCHMARK.json the tests compare
// against: the metric names each mode must print.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smoke(t *testing.T, workload string, traced bool) (*outcome, string) {
	t.Helper()
	var out strings.Builder
	res, err := run(config{workload: workload, seed: 3, seconds: 0.01, trace: traced, scale: smokeScale}, &out)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, out.String()
}

// TestSmokeWorkloads runs every workload at a short scale in both
// modes: every check passes, the last line is the JSON outcome, and
// the metrics are exactly BENCHMARK.json's, with its units.
func TestSmokeWorkloads(t *testing.T) {
	spec := loadBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(spec.Workloads), len(workloadNames()))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames()[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadNames()[i])
		}
		for _, traced := range []bool{false, true} {
			res, text := smoke(t, w.Name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed\n%s", w.Name, traced, res.Failed, res.Attempted, text)
			}
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var last outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the JSON outcome: %v", w.Name, err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(last.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := last.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json %q", w.Name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		}
	}
}

// TestUnknownWorkload: a bad name is an error, not a result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run(config{workload: "nope", seed: 1, seconds: 1, scale: 1}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// smallPass replays the paper pair once at smoke scale.
func smallPass(t *testing.T) *passOut {
	t.Helper()
	wl := &paperPair{scale: smokeScale}
	if err := wl.setup(5); err != nil {
		t.Fatal(err)
	}
	p, err := wl.pass(newTapSet(wl.warmup(), false), nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// corrupt returns a shallow copy of a pass's first replay whose result
// the caller may alter without touching the original.
func corrupt(p *passOut) replay {
	r := p.replays[0]
	res := *r.res
	res.Tiers = append([]cluster.TierResult(nil), res.Tiers...)
	r.res = &res
	return r
}

// TestChecksFire corrupts a real result one way at a time: each check
// must pass on the original and fail on the corruption.
func TestChecksFire(t *testing.T) {
	p := smallPass(t)
	var clean checker
	checkPass(&clean, p)
	if clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("clean pass: %d of %d checks failed: %v", clean.failed, clean.attempted, clean.failures)
	}

	cases := []struct {
		name   string
		break_ func(r *replay)
	}{
		{"source yielded more than offered", func(r *replay) { r.pulled++ }},
		{"offered != consumed", func(r *replay) { r.res.Consumed-- }},
		{"served without a latency sample", func(r *replay) { r.res.Tiers[0].Served++ }},
		{"aggregate completed drifts from tiers", func(r *replay) { r.res.Completed++ }},
		{"lost request", func(r *replay) { r.res.Offered += r.warm + 1; r.res.Consumed = r.res.Offered; r.pulled = r.res.Offered }},
		{"rejections not in a tier", func(r *replay) { r.res.Rejected++ }},
	}
	for _, tc := range cases {
		r := corrupt(p)
		tc.break_(&r)
		var c checker
		checkConservation(&c, r)
		if c.failed == 0 {
			t.Errorf("%s: no check fired", tc.name)
		}
	}

	// Determinism: a pass differing in any counter fingerprints apart.
	want := p.fingerprints()
	q := &passOut{replays: append([]replay(nil), p.replays...)}
	q.replays[0] = corrupt(p)
	q.replays[0].res.Tiers[0].Spilled++
	if equalPrints(want, q.fingerprints()) {
		t.Error("a changed spill count left the fingerprint unchanged")
	}
	if !equalPrints(want, smallPass(t).fingerprints()) {
		t.Error("two passes of one seed fingerprint apart")
	}

	// Oracle comparison: counts must match exactly, latencies closely.
	var same checker
	checkSameCounts(&same, "self", p.replays[0].res, p.replays[0].res)
	if same.failed != 0 {
		t.Errorf("a result differs from itself: %v", same.failures)
	}
	r := corrupt(p)
	r.res.Tiers[0].Dropped++
	var diff checker
	checkSameCounts(&diff, "dropped", p.replays[0].res, r.res)
	if diff.failed == 0 {
		t.Error("a changed drop count matched the oracle")
	}
	if relClose(1, 1.1, 0.05) || !relClose(1, 1.01, 0.05) {
		t.Error("relClose tolerance is wrong")
	}
}

// TestBudgetAddsUp: the ledger's layers plus residual is its e2e, in
// the arithmetic and in a traced run's printed metrics.
func TestBudgetAddsUp(t *testing.T) {
	b := budget{e2e: 900, lines: []budgetLine{{"a", 100, 1.5}, {"b", 40, 3}, {"c", 7, 0}}}
	if got := b.layers(); got != 270 {
		t.Errorf("layers = %v, want 270", got)
	}
	if b.layers()+b.residual() != b.e2e {
		t.Errorf("layers %v + residual %v != e2e %v", b.layers(), b.residual(), b.e2e)
	}
	res, _ := smoke(t, "paper-pair-1core", true)
	m := res.Metrics
	e2e, layers, resid := m["budget.e2e_ns_per_req"].Value, m["budget.layers_ns_per_req"].Value, m["budget.residual_ns_per_req"].Value
	if e2e <= 0 || layers <= 0 || math.Abs(layers+resid-e2e) > 1e-9*e2e {
		t.Errorf("printed budget: layers %v + residual %v != e2e %v", layers, resid, e2e)
	}
}

// TestQuantile pins the interpolation the chunk percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("quantile sorted its input in place")
	}
}
