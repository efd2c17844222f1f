package main

// CLI workload plumbing: the -trace/-azure file decoders (with binary
// .etb auto-detection), the -compile format converter, and the
// pre-scan that lets a -sweep rescale a recorded trace onto its rate
// axis.

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// replaysFile reports whether the run reads -trace or -azure (at most
// one is set) instead of generating its workload.
func (o *options) replaysFile() bool { return o.trace != "" || o.azure != "" }

// inputFlag and inputPath name the recorded workload; inputLabel is
// both, as "trace <path>".
func (o *options) inputFlag() string {
	if o.trace != "" {
		return "-trace"
	}
	return "-azure"
}

func (o *options) inputPath() string { return o.trace + o.azure }

func (o *options) inputLabel() string { return o.inputFlag()[1:] + " " + o.inputPath() }

// factory builds fresh decoders over the file. limitSites > 0 makes a
// request-CSV record outside [0, limitSites) a decode error instead of
// a replay panic (the Azure decoder's site count is fixed by its header
// and validated separately). Each call opens the file anew — sharded
// replays scan one decoder per shard, concurrently — and the handles
// live until process exit, which for a CLI run is the replay's
// lifetime anyway. -seed drives the Azure decoder's service times, so
// every call replays the identical sequence (the SourceFactory contract
// sharded and paired runs rely on).
func (o *options) factory(limitSites int) cluster.SourceFactory {
	return func() cluster.Source {
		f, err := os.Open(o.inputPath())
		if err != nil {
			return errorSource{err: err}
		}
		if o.trace != "" {
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
			BinWidth: o.azureBin,
			Seed:     o.seed,
		})
	}
}

// azureSites reads the Azure CSV header for its site count, which the
// format fixes before any data row.
func (o *options) azureSites() (int, error) {
	f, err := os.Open(o.azure)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	src := trace.StreamAzureCSV(f, trace.AzureStreamOptions{BinWidth: o.azureBin})
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
		ws.sites = max(ws.sites, rec.Site+1)
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

// runCompile converts the -trace/-azure input into the format the
// output path's extension selects — ".csv" the request-CSV text
// format, anything else (conventionally ".etb") the binary trace
// format — then prints what it wrote and exits. Compiling an Azure
// count file bakes its synthesized arrivals (and the -seed's service
// times) into replayable records; compiling a CSV to .etb is the
// "parse once" step that lets every later replay skip text decoding.
// A decode or write failure removes the partial output, so a bad
// input never leaves a plausible-looking compiled file behind.
func runCompile(o *options) {
	outPath := o.compile
	src := o.factory(0)()
	out, err := os.Create(outPath)
	if err != nil {
		die("-compile: %v", err)
	}
	var n int
	if strings.HasSuffix(outPath, ".csv") {
		n, err = trace.WriteRequestsCSV(out, src)
	} else {
		n, err = trace.WriteBinary(out, src)
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(outPath)
		die("-compile: %v", err)
	}
	size := int64(-1)
	if st, statErr := os.Stat(outPath); statErr == nil {
		size = st.Size()
	}
	sites := 0
	if sc, ok := src.(interface{ Sites() int }); ok { // every trace decoder
		sites = sc.Sites()
	}
	fmt.Printf("compiled %s -> %s: %d records, %d sites, %d bytes\n",
		o.inputPath(), outPath, n, sites, size)
}
