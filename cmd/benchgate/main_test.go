package main

import (
	"errors"
	"strings"
	"testing"
)

func TestDecide(t *testing.T) {
	rate := metric{Name: "req_per_s", Better: "higher", Bound: 0.2}
	rss := metric{Name: "peak_rss_mb", Better: "lower", Bound: 0.2}
	// Unchanged code on etb-hierarchy-2core read peak_rss_mb anywhere
	// in 39.9–50.3 MB over 5 runs: an interquartile range of 24% of the
	// median, wider than the 20% bound.
	wideRSS := []float64{39.9, 40.1, 41.2, 50.1, 50.3}
	for _, tc := range []struct {
		name           string
		m              metric
		parent, change []float64
		want           verdict
	}{
		{"higher-better unchanged", rate,
			[]float64{4.9, 5.0, 5.0, 5.1, 5.2}, []float64{4.9, 5.0, 5.1, 5.1, 5.2}, pass},
		{"higher-better just inside the bound", rate,
			[]float64{4.9, 5.0, 5.0, 5.1, 5.2}, []float64{3.9, 4.0, 4.01, 4.1, 4.2}, pass},
		{"higher-better just beyond the bound", rate,
			[]float64{4.9, 5.0, 5.0, 5.1, 5.2}, []float64{3.9, 3.95, 3.99, 4.1, 4.2}, regressed},
		{"higher-better gain", rate,
			[]float64{4.9, 5.0, 5.0, 5.1, 5.2}, []float64{9.9, 10, 10, 10.1, 10.2}, pass},
		{"lower-better just inside the bound", rss,
			[]float64{49, 50, 50, 50, 51}, []float64{58, 59, 59.9, 60, 61}, pass},
		{"lower-better just beyond the bound", rss,
			[]float64{49, 50, 50, 50, 51}, []float64{58, 59, 60.1, 60.2, 61}, regressed},
		{"lower-better gain", rss,
			[]float64{49, 50, 50, 50, 51}, []float64{25, 25, 25, 25, 25}, pass},
		{"wide parent spread: beyond the bound is unresolved", rss,
			wideRSS, []float64{50.0, 50.2, 50.4, 50.6, 51.0}, unresolved},
		{"wide parent spread: inside the bound is unresolved", rss,
			wideRSS, []float64{40.0, 40.5, 41.0, 49.0, 50.0}, unresolved},
		{"wide parent spread: every change run worse, beyond the bound", rss,
			wideRSS, []float64{50.4, 51, 52, 53, 54}, regressed},
		{"wide parent spread: every change run better", rss,
			wideRSS, []float64{30, 31, 32, 33, 39.8}, pass},
		{"wide parent spread, higher-better: every change run worse", rate,
			[]float64{3, 3.5, 5, 6.5, 7}, []float64{1, 1.5, 2, 2.5, 2.9}, regressed},
	} {
		if got := decide(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: decide = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestParseRun(t *testing.T) {
	metrics := []metric{{Name: "req_per_s"}, {Name: "peak_rss_mb"}}
	const report = "manifest: seed 1\nreq_per_s 5e6 1/s\n"
	good := report + `{"correct":true,"attempted":40,"failed":0,"metrics":{"req_per_s":{"value":5000000,"unit":"1/s"},"peak_rss_mb":{"value":50.5,"unit":"MB"}}}` + "\n"
	vals, err := parseRun([]byte(good), nil, metrics)
	if err != nil {
		t.Fatal(err)
	}
	if vals["req_per_s"] != 5e6 || vals["peak_rss_mb"] != 50.5 {
		t.Errorf("parseRun values = %v", vals)
	}

	exit1 := errors.New("exit status 1")
	for _, tc := range []struct {
		name string
		out  string
		err  error
		want string
	}{
		{"failed checks", report + `{"correct":false,"attempted":40,"failed":2,"metrics":{"req_per_s":{"value":5000000}}}`, exit1, "2 of 40 checks failed"},
		{"no JSON line", report, exit1, "no JSON outcome line"},
		{"no output", "", exit1, "no JSON outcome line"},
		{"non-zero exit", good, exit1, "exit status 1"},
		{"metric missing", report + `{"correct":true,"attempted":40,"failed":0,"metrics":{"req_per_s":{"value":5000000}}}`, nil, "peak_rss_mb missing"},
	} {
		_, err := parseRun([]byte(tc.out), tc.err, metrics)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: parseRun error = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
