package main

// CLI workload plumbing for -topology runs: the -trace/-azure file
// decoders (with binary .etb auto-detection), the -shards engine
// choice, the -gen-workers generator choice, the -compile format
// converter, and the pre-scan that lets a -sweep rescale a recorded
// trace onto its rate axis.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// workloadInput is the parsed -trace/-azure flag pair; at most one path
// is set. seed feeds the Azure decoder's service-time synthesis, fixed
// per process so every factory call replays the identical sequence (the
// SourceFactory contract sharded and paired runs rely on).
type workloadInput struct {
	tracePath string
	azurePath string
	azureBin  float64
	seed      int64
}

func (in workloadInput) active() bool { return in.tracePath != "" || in.azurePath != "" }

func (in workloadInput) path() string {
	if in.tracePath != "" {
		return in.tracePath
	}
	return in.azurePath
}

func (in workloadInput) flagName() string {
	if in.tracePath != "" {
		return "-trace"
	}
	return "-azure"
}

func (in workloadInput) label() string { return in.flagName()[1:] + " " + in.path() }

// factory builds fresh decoders over the file. limitSites > 0 makes a
// request-CSV record outside [0, limitSites) a decode error instead of
// a replay panic (the Azure decoder's site count is fixed by its header
// and validated separately). Each call opens the file anew — sharded
// replays scan one decoder per shard, concurrently — and the handles
// live until process exit, which for a CLI run is the replay's
// lifetime anyway.
func (in workloadInput) factory(limitSites int) cluster.SourceFactory {
	return func() cluster.Source {
		f, err := os.Open(in.path())
		if err != nil {
			return errorSource{err: err}
		}
		if in.tracePath != "" {
			// -trace auto-detects the format: a .etb signature selects
			// the binary decoder, anything else the request-CSV one (a
			// peek never consumes, so the chosen decoder sees the whole
			// file; files shorter than the magic fall through to CSV,
			// whose header check reports them).
			br := bufio.NewReader(f)
			if head, _ := br.Peek(len(trace.BinaryMagic)); string(head) == trace.BinaryMagic {
				src := trace.StreamBinary(br)
				if limitSites > 0 {
					src.LimitSites(limitSites)
				}
				return src
			}
			src := trace.StreamRequestsCSV(br)
			if limitSites > 0 {
				src.LimitSites(limitSites)
			}
			return src
		}
		return trace.StreamAzureCSV(f, trace.AzureStreamOptions{
			BinWidth: in.azureBin,
			Seed:     in.seed,
		})
	}
}

// azureSites reads the Azure CSV header for its site count, which the
// format fixes before any data row.
func (in workloadInput) azureSites() (int, error) {
	f, err := os.Open(in.azurePath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	src := trace.StreamAzureCSV(f, trace.AzureStreamOptions{BinWidth: in.azureBin})
	if src.Sites() == 0 {
		return 0, src.Err()
	}
	return src.Sites(), nil
}

// errorSource is a Source that failed before its first record — a
// factory's file-open error, surfaced through the FallibleSource
// contract so a shard worker reports it instead of panicking.
type errorSource struct{ err error }

func (e errorSource) Next() (cluster.RequestRecord, bool) { return cluster.RequestRecord{}, false }

func (e errorSource) Err() error { return e.err }

// workloadStats is one pre-scan over a decoder: record count, timeline
// end, observed site count, and the aggregate request rate.
type workloadStats struct {
	n     uint64
	dur   float64
	sites int
	rate  float64
}

// scanWorkload drains one decoder built by factory, so sweeps can
// rescale the trace onto their rate axis and sharded replays of
// shared-ingress graphs can learn the site count before partitioning.
func scanWorkload(factory cluster.SourceFactory) (workloadStats, error) {
	var ws workloadStats
	src := factory()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		ws.n++
		ws.dur = rec.Time
		if rec.Site+1 > ws.sites {
			ws.sites = rec.Site + 1
		}
	}
	if fs, ok := src.(cluster.FallibleSource); ok {
		if err := fs.Err(); err != nil {
			return ws, err
		}
	}
	if ws.n == 0 || ws.dur <= 0 {
		return ws, fmt.Errorf("workload has %d requests over %gs; nothing to replay", ws.n, ws.dur)
	}
	ws.rate = float64(ws.n) / ws.dur
	return ws, nil
}

// shardChoice is the parsed -shards flag; n is meaningful only when the
// flag was given explicitly. verbose (-v) narrates the resolution on
// stderr — in particular the planner's reason when auto mode falls
// back to the single engine, which is otherwise silent.
type shardChoice struct {
	set     bool
	n       int
	verbose bool
}

// resolve maps the flag onto a replay engine: 0 selects the classic
// single-engine cluster.Run, a positive count that many sharded engines
// through cluster.RunPipelined. Unset picks one shard per CPU when the
// graph shards and quietly falls back to the single engine when it
// cannot (pass -v to hear why); an explicit count refuses unshardable
// graphs with the planner's reason.
func (sh shardChoice) resolve(topo cluster.Topology) (int, error) {
	if !sh.set {
		if err := cluster.Shardable(topo); err != nil {
			if sh.verbose {
				fmt.Fprintf(os.Stderr, "edgesim: -shards auto: falling back to the classic single engine: %v\n", err)
			}
			return 0, nil
		}
		n := runtime.GOMAXPROCS(0)
		if sh.verbose {
			fmt.Fprintf(os.Stderr, "edgesim: -shards auto: %d sharded engines (one per CPU)\n", n)
		}
		return n, nil
	}
	if sh.n == 0 {
		return 0, nil
	}
	if err := cluster.Shardable(topo); err != nil {
		return sh.n, err
	}
	return sh.n, nil
}

// genChoice is the parsed -gen-workers flag: how many goroutines the
// synthetic-workload generator fans out across. Unlike -shards, every
// setting is bit-identical — ParallelStream merges the per-site
// substreams back into serial Stream's exact sequence — so the choice
// is purely about generation throughput. verbose (-v) narrates the
// resolution on stderr, mirroring the -shards auto explanation.
type genChoice struct {
	arg     string
	verbose bool
}

// resolve maps the flag onto an Options.GenWorkers value for a
// generator over sites per-site streams: 0 means the serial generator,
// n > 1 that many parallel workers. "auto" picks one worker per CPU
// and degrades to serial on a single-CPU machine (pass -v to hear
// which happened); an explicit count is clamped to one worker per
// site, the fan-out's natural maximum.
func (g genChoice) resolve(sites int) (int, error) {
	var n int
	switch g.arg {
	case "", "serial":
		return 0, nil
	case "auto":
		n = runtime.GOMAXPROCS(0)
		if n <= 1 {
			if g.verbose {
				fmt.Fprintln(os.Stderr, "edgesim: -gen-workers auto: falling back to the serial generator (GOMAXPROCS=1)")
			}
			return 0, nil
		}
	default:
		v, err := strconv.Atoi(g.arg)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("-gen-workers: want serial, auto, or a nonnegative count (got %q)", g.arg)
		}
		n = v
		if n <= 1 {
			return 0, nil
		}
	}
	if n > sites {
		if g.verbose {
			fmt.Fprintf(os.Stderr, "edgesim: -gen-workers: clamping %d to %d (one worker per site)\n", n, sites)
		}
		n = sites
		if n <= 1 {
			if g.verbose {
				fmt.Fprintln(os.Stderr, "edgesim: -gen-workers: single site; using the serial generator")
			}
			return 0, nil
		}
	}
	if g.verbose {
		fmt.Fprintf(os.Stderr, "edgesim: -gen-workers: %d parallel generator workers (bit-identical to serial)\n", n)
	}
	return n, nil
}

// siteCounter is the decoder face runCompile reads the site count
// from; every trace decoder implements it.
type siteCounter interface{ Sites() int }

// runCompile converts the -trace/-azure input into the format the
// output path's extension selects — ".csv" the request-CSV text
// format, anything else (conventionally ".etb") the binary trace
// format — then prints what it wrote and exits. Compiling an Azure
// count file bakes its synthesized arrivals (and the -seed's service
// times) into replayable records; compiling a CSV to .etb is the
// "parse once" step that lets every later replay skip text decoding.
// A decode or write failure removes the partial output, so a bad
// input never leaves a plausible-looking compiled file behind.
func runCompile(in workloadInput, outPath string) {
	src := in.factory(0)()
	out, err := os.Create(outPath)
	if err != nil {
		fail("-compile: %v", err)
	}
	var n int
	if strings.HasSuffix(outPath, ".csv") {
		n, err = trace.WriteRequestsCSV(out, src)
	} else {
		n, err = trace.WriteBinary(out, src)
	}
	if err == nil {
		err = out.Close()
	} else {
		out.Close()
	}
	if err != nil {
		os.Remove(outPath)
		fail("-compile: %v", err)
	}
	size := int64(-1)
	if st, statErr := os.Stat(outPath); statErr == nil {
		size = st.Size()
	}
	sites := 0
	if sc, ok := src.(siteCounter); ok {
		sites = sc.Sites()
	}
	fmt.Printf("compiled %s -> %s: %d records, %d sites, %d bytes\n",
		in.path(), outPath, n, sites, size)
}
