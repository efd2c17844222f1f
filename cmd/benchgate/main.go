// Command benchgate gates a change on the replay benchmark that
// BENCHMARK.json declares. Run it from the repository root:
//
//	go run ./cmd/benchgate -parent ../parent
//
// For every workload in BENCHMARK.json it runs
// `bash replaybench/run.sh --workload W --seed 1 --seconds 3 --trace 0`
// in pairs, once in this checkout and once in the parent commit's
// checkout, alternating which goes first so slow and fast phases of the
// host fall on both sides. The workloads, the end-to-end metrics, their
// better directions and their bounds all come from BENCHMARK.json.
//
// The command exits 1 when any run exits non-zero, prints no JSON line
// or reports failed checks, or when an end-to-end metric's median is
// worse than the parent's by more than its bound. A metric whose parent
// interquartile range is wider than its bound is reported as
// unresolved instead, unless every run of the change is worse than
// every run of the parent. Without -parent the command runs each
// workload once and checks correctness only.
//
// The report goes to standard output; the benchmark's own build output
// goes to standard error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"

	"repro/internal/stats"
)

// pairs is the number of runs per side and workload: enough for a
// median and quartiles, and ~2.5 minutes for the three workloads at
// ~4 s per run.
const pairs = 5

// seconds is each run's length in host seconds, passed to run.sh.
const seconds = "3"

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one end-to-end metric: its name, whether "higher" or
// "lower" values are better, and the fraction by which it may worsen.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	parent := flag.String("parent", "", "checkout of the parent commit to compare against; empty runs the correctness checks only")
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate: BENCHMARK.json:", err)
		os.Exit(2)
	}
	ok := true
	for _, w := range sp.Workloads {
		if !gate(os.Stdout, sp.EndToEnd, w.Name, *parent) {
			ok = false
		}
	}
	if !ok {
		fmt.Println("benchgate: FAILED")
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// gate runs one workload, in this checkout alone or paired with the
// parent's, reports it to w and returns false on a failed run or a
// regressed metric.
func gate(w io.Writer, metrics []metric, workload, parent string) bool {
	trees, labels, n := []string{"."}, []string{"change"}, 1
	if parent != "" {
		trees, labels, n = []string{".", parent}, []string{"change", "parent"}, pairs
	}
	runs := make([][]map[string]float64, len(trees))
	ok := true
	for i := 0; i < n; i++ {
		for j := range trees {
			t := (i + j) % len(trees)
			m, err := runOnce(trees[t], workload, metrics)
			if err != nil {
				fmt.Fprintf(w, "%s: %s run %d FAILED: %v\n", workload, labels[t], i+1, err)
				ok = false
				continue
			}
			runs[t] = append(runs[t], m)
		}
	}
	if !ok {
		return false
	}
	fmt.Fprintf(w, "%s: %d run(s) per checkout, 0 failed checks\n", workload, n)
	for _, m := range metrics {
		change := column(runs[0], m.Name)
		if parent == "" {
			fmt.Fprintf(w, "  %-13s %s\n", m.Name, spread(change))
			continue
		}
		base := column(runs[1], m.Name)
		v := decide(m, base, change)
		fmt.Fprintf(w, "  %-13s parent %s  change %s  %+6.1f%% (bound %.0f%%)  %s\n",
			m.Name, spread(base), spread(change),
			100*(median(change)/median(base)-1), 100*m.Bound, v)
		if v == regressed {
			ok = false
		}
	}
	return ok
}

// runOnce runs the benchmark once in tree and returns its end-to-end
// metrics.
func runOnce(tree, workload string, metrics []metric) (map[string]float64, error) {
	cmd := exec.Command("bash", "replaybench/run.sh", "--workload", workload,
		"--seed", "1", "--seconds", seconds, "--trace", "0")
	cmd.Dir = tree
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return parseRun(out, err, metrics)
}

// parseRun reads one run's standard output, whose last line is the
// benchmark's JSON outcome, and its exit error. A run without that
// line, with failed checks, with a non-zero exit or missing a metric
// is an error.
func parseRun(out []byte, exitErr error, metrics []metric) (map[string]float64, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no JSON outcome line (exit: %v)", exitErr)
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("%d of %d checks failed", res.Failed, res.Attempted)
	}
	if exitErr != nil {
		return nil, exitErr
	}
	vals := map[string]float64{}
	for _, m := range metrics {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s missing", m.Name)
		}
		vals[m.Name] = v.Value
	}
	return vals, nil
}

// verdict is one metric's outcome on one workload.
type verdict string

const (
	pass       verdict = "ok"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// decide compares the change's runs of m with the parent's. The change
// regresses when its median is worse than the parent's by more than
// m.Bound. When the parent's own interquartile range exceeds the bound
// the comparison cannot tell noise from a change, so the metric is
// unresolved, unless every change run is better than every parent run
// (ok) or, beyond the bound, worse than every parent run (regressed).
func decide(m metric, parent, change []float64) verdict {
	worse := func(a, b float64) bool { return a > b }
	pm := median(parent)
	limit := pm * (1 + m.Bound)
	if m.Better == "higher" {
		worse = func(a, b float64) bool { return a < b }
		limit = pm * (1 - m.Bound)
	}
	beyond := worse(median(change), limit)
	if quantile(parent, 0.75)-quantile(parent, 0.25) <= m.Bound*pm {
		if beyond {
			return regressed
		}
		return pass
	}
	allWorse, allBetter := true, true
	for _, c := range change {
		for _, p := range parent {
			allWorse = allWorse && worse(c, p)
			allBetter = allBetter && worse(p, c)
		}
	}
	switch {
	case beyond && allWorse:
		return regressed
	case allBetter:
		return pass
	}
	return unresolved
}

// column collects one metric across runs.
func column(runs []map[string]float64, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r[name]
	}
	return xs
}

func quantile(xs []float64, q float64) float64 {
	s := stats.NewSample(len(xs))
	s.AddAll(xs)
	return s.Quantile(q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread formats runs as "median [q1, q3]".
func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}
