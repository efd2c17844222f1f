// Command replaybench is the repository's replay benchmark. It builds
// one of three named workloads from a seed, replays it through the
// simulator's public entry points (cluster.ParseTopology, Run,
// RunPipelined, RunBroadcast, Stream and the trace codec) for a fixed
// number of host seconds, checks every pass for correctness, and prints
// its metrics by name with their units:
//
//	go run . --workload paper-pair-1core --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics a user of the simulator
// sees (replay throughput, per-chunk host time, peak memory, set-up
// time). Times are scaled to a fixed machine speed measured around
// every pass by a calibration kernel (see calib.go); the figures as
// measured are printed beside them. --trace 1 is a separate run that
// splits the same workload's
// cost into per-layer numbers, measured from outside the engine: a
// timing Source wrapper, Options.Probe/BacklogProbe, runtime.MemStats
// deltas and isolated calls into each layer's public functions fed the
// workload's own inputs.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// makes the command exit with status 1; a usage or set-up error exits
// with status 2 and prints no JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // workload duration multiplier; 1 outside tests
}

func main() {
	cfg := config{scale: 1}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to replay: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds of timed passes")
	flag.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1

	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		os.Exit(2)
	}
	if out.Failed > 0 {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one invocation and prints its report to w, ending with
// the JSON outcome line. It returns an error, and prints no JSON, only
// when the workload cannot be set up or replayed at all.
func run(cfg config, w io.Writer) (*outcome, error) {
	wl, err := newWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(wl.procs())
	defer runtime.GOMAXPROCS(prev)
	printManifest(w, cfg)

	if err := wl.setup(cfg.seed); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name(), err)
	}

	chk := &checker{}
	// The warm-up pass fills caches and lazily built state before any
	// timing, and is the reference every later pass must reproduce.
	ref, err := wl.pass(newTapSet(wl.warmup(), false), nil)
	if err != nil {
		return nil, err
	}
	checkPass(chk, ref)
	r := &runner{wl: wl, seed: cfg.seed, chk: chk, refPrints: ref.fingerprints()}

	metrics := map[string]metric{}
	if !cfg.trace {
		tp, err := r.passes(cfg.seconds)
		if err != nil {
			return nil, err
		}
		rss := peakRSSMB()
		if _, err := wl.oracle(ref, chk, nil); err != nil {
			return nil, err
		}
		rates, chunks := tp.scaled()
		metrics["req_per_s"] = metric{median(rates), "1/s"}
		metrics["chunk_ms_p50"] = metric{quantile(chunks, 0.5), "ms"}
		metrics["chunk_ms_p95"] = metric{quantile(chunks, 0.95), "ms"}
		metrics["peak_rss_mb"] = metric{rss, "MB"}
		metrics["setup_s"] = metric{median(tp.setups), "s"}
		fmt.Fprintf(w, "passes %d of %d simulated requests, %d chunks of %d records, %d set-ups\n",
			len(tp.rates), ref.requests, len(chunks), chunkRecs, len(tp.setups))
		fmt.Fprintf(w, "as measured: median %.4g req/s, calibration kernel median %.4g events/s (reference %.4g)\n",
			median(tp.rates), median(tp.speeds), calibRef)
	} else {
		if err := traceRun(w, r, cfg, ref, metrics); err != nil {
			return nil, err
		}
	}

	wl.answer(w, ref)
	out := &outcome{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}
	printMetrics(w, metrics)
	ratio := float64(chk.failed) / float64(chk.attempted)
	fmt.Fprintf(w, "%-32s %14.6g %s   (%d of %d checks failed)\n", "check_fail_ratio", ratio, "ratio", chk.failed, chk.attempted)
	for _, f := range chk.failures {
		fmt.Fprintln(w, "CHECK FAILED:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return out, nil
}

// runner replays one workload's passes and checks each against the
// warm-up pass of the same seed.
type runner struct {
	wl        workload
	seed      int64
	chk       *checker
	refPrints []uint64
}

// timed holds what the timed passes measured, per pass.
type timed struct {
	rates    []float64   // simulated requests per host second, as measured
	chunks   [][]float64 // host ms per chunkRecs records pulled from one source
	speeds   []float64   // calibration kernel speed around the pass (passes only)
	setups   []float64   // set-up seconds sampled between passes, scaled (passes only)
	cpuNs    []float64   // process CPU ns inside the pass
	requests []uint64    // simulated requests replayed
	taps     tapTotals   // sampled Next self time and pull gaps (traced passes)
	passes   []*passOut  // the passes' results (traced passes)
}

const (
	// minPasses keeps a short --seconds from reporting a median of one.
	minPasses = 3
	// setupShare is the share of the timed passes' time the set-ups
	// sampled between them may take, and maxSetupsPerPass caps the
	// set-ups of a few microseconds after one pass.
	setupShare       = 0.1
	maxSetupsPerPass = 50
)

// passes replays the workload until seconds have passed, checking each
// pass's conservation and that it reproduces the warm-up pass. The
// calibration kernel runs before and after every pass, and the
// workload's set-up is repeated between passes, so set-up time is
// sampled across the run just as the passes are.
func (r *runner) passes(seconds float64) (*timed, error) {
	out := &timed{}
	var passSecs, setupSecs float64
	before := calibrate(r.wl.procs())
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out.rates) < minPasses || time.Now().Before(deadline) {
		dt, err := r.pass(out, nil)
		if err != nil {
			return nil, err
		}
		passSecs += dt
		after := calibrate(r.wl.procs())
		out.speeds = append(out.speeds, (before+after)/2)
		before = after
		for n := 0; n < maxSetupsPerPass && setupSecs < setupShare*passSecs; n++ {
			t0 := time.Now()
			if err := r.wl.setup(r.seed); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", r.wl.name(), err)
			}
			d := time.Since(t0).Seconds()
			setupSecs += d
			out.setups = append(out.setups, d*after/calibRef)
		}
	}
	return out, nil
}

// scaled returns the passes' throughputs and chunk times as they would
// read at the calibration kernel's reference speed.
func (t *timed) scaled() (rates, chunks []float64) {
	for i, s := range t.speeds {
		rates = append(rates, t.rates[i]*calibRef/s)
		for _, c := range t.chunks[i] {
			chunks = append(chunks, c*s/calibRef)
		}
	}
	return rates, chunks
}

// pass replays one timed pass into out, checks it, and returns its
// host seconds.
func (r *runner) pass(out *timed, tr *tracer) (float64, error) {
	taps := newTapSet(r.wl.warmup(), tr != nil)
	cpu0 := cpuTime()
	t0 := time.Now()
	p, err := r.wl.pass(taps, tr)
	if err != nil {
		return 0, err
	}
	dt := time.Since(t0).Seconds()
	out.cpuNs = append(out.cpuNs, float64(cpuTime()-cpu0))
	out.requests = append(out.requests, p.requests)
	out.rates = append(out.rates, float64(p.requests)/dt)
	out.chunks = append(out.chunks, taps.chunks())
	out.taps.add(taps)
	checkPass(r.chk, p)
	r.chk.check(equalPrints(r.refPrints, p.fingerprints()),
		"%s: a pass differs from the first pass of the same seed", r.wl.name())
	if tr != nil {
		out.passes = append(out.passes, p)
	}
	return dt, nil
}

// cpuPerRequest is the process CPU ns per simulated request.
func (t *timed) cpuPerRequest() float64 {
	var cpu float64
	var reqs uint64
	for i := range t.cpuNs {
		cpu += t.cpuNs[i]
		reqs += t.requests[i]
	}
	return cpu / float64(reqs)
}

// printManifest prints the run's provenance: seed, CPU shape, Go
// version and the VCS revision the binary was built from.
func printManifest(w io.Writer, cfg config) {
	rev, modified := "none", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "replaybench workload=%s seed=%d seconds=%g mode=%s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Fprintf(w, "manifest: GOMAXPROCS=%d nproc=%d go=%s %s/%s revision=%s%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, rev, modified)
}

// printMetrics prints every metric by name with its unit, sorted.
func printMetrics(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
