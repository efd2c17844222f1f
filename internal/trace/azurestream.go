package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/merge"
)

// maxBinCount rejects absurd per-bin request counts before they
// overflow int arithmetic; real Azure bins are O(10³).
const maxBinCount = 1 << 40

// AzureStreamOptions parameterizes streaming record synthesis from an
// Azure-style per-bin invocation-count file (the WriteSiteSeriesCSV
// format: "bin,site0,site1,...").
type AzureStreamOptions struct {
	// BinWidth is the seconds each row spans (default 60, the Azure
	// dataset's per-minute resolution).
	BinWidth float64
	// Seed derives one service-time stream per site.
	Seed int64
	// Service is the execution-time distribution (default
	// ExecTimeDist(1/13, 1), the DNN model's mean with exponential-like
	// spread).
	Service dist.Dist
}

// AzureSource streams cluster.RequestRecords synthesized from a per-bin
// count file one row at a time: a row's counts become that bin's
// arrivals, evenly spaced inside the bin and merged across sites in
// (time, site) order, with service times drawn from per-site streams in
// emission order. Memory is O(sites) — one row of counts — regardless
// of file length, and the synthesis is deterministic for a given seed:
// streaming and slurped decodes agree record for record. Decode
// problems end the stream and are reported by Err; the source never
// panics and never silently drops rows.
type AzureSource struct {
	sc   *lineScanner
	opts AzureStreamOptions

	nSites int
	svcRng []*rand.Rand

	bin     int     // current row's bin index
	lastBin int     // last accepted bin index (-1 before the first row)
	counts  []int64 // current row's per-site counts (int64: a maxBinCount value must not overflow on 32-bit builds)
	emitted []int64 // arrivals yielded so far per site in this bin
	nextT   []float64
	// heap holds the indices of sites with arrivals left in the current
	// bin, min-ordered by (nextT, site) — O(log sites) per record where
	// a per-record scan would be O(sites).
	heap merge.Heap

	err  error
	done bool
	n    uint64
}

// StreamAzureCSV opens a streaming decoder over a per-bin count file.
// The header row is consumed immediately; rows are decoded as their
// bins are reached. Callers must check Err after the source drains.
func StreamAzureCSV(r io.Reader, opts AzureStreamOptions) *AzureSource {
	// Non-finite widths (NaN, ±Inf) would silently poison every arrival
	// time with NaN while Err stays nil; fall back to the per-minute
	// default alongside zero and negatives.
	if !(opts.BinWidth > 0) || math.IsInf(opts.BinWidth, 1) {
		opts.BinWidth = 60
	}
	if opts.Service == nil {
		opts.Service = ExecTimeDist(1.0/13, 1)
	}
	s := &AzureSource{sc: newLineScanner(r), opts: opts, lastBin: -1}
	line, ok := s.sc.scan()
	var row [][]byte
	if ok {
		row = s.sc.split(line)
	}
	switch {
	case !ok && s.sc.err != nil:
		s.fail(fmt.Errorf("trace: azure CSV header: %w", s.sc.err))
	case !ok:
		s.fail(fmt.Errorf("trace: azure CSV is empty"))
	case len(row) < 2 || !bytes.Equal(row[0], []byte("bin")):
		s.fail(fmt.Errorf("trace: azure CSV header %q, want \"bin,site0,...\"", line))
	default:
		s.nSites = len(row) - 1
		s.counts = make([]int64, s.nSites)
		s.emitted = make([]int64, s.nSites)
		s.nextT = make([]float64, s.nSites)
		s.heap.Less = func(a, b int) bool {
			if s.nextT[a] != s.nextT[b] {
				return s.nextT[a] < s.nextT[b]
			}
			return a < b
		}
		s.heap.Grow(s.nSites)
		// One service stream per site, seeded in site order from the
		// master stream — mirroring cluster.Stream's seed derivation
		// discipline so the synthesis is reproducible from Seed alone.
		master := dist.NewRand(opts.Seed)
		s.svcRng = make([]*rand.Rand, s.nSites)
		for i := range s.svcRng {
			s.svcRng[i] = dist.NewRand(master.Int63())
		}
	}
	return s
}

func (s *AzureSource) fail(err error) {
	s.err = err
	s.done = true
}

// nextRow decodes the next data row into counts, returning false at a
// clean EOF or on error (recorded in err).
func (s *AzureSource) nextRow() bool {
	lineBytes, ok := s.sc.scan()
	if !ok {
		s.done = true
		if s.sc.err != nil {
			s.err = fmt.Errorf("trace: azure CSV: %w", s.sc.err)
		}
		return false
	}
	line := s.sc.line
	row := s.sc.split(lineBytes)
	if len(row) != s.nSites+1 {
		s.fail(fmt.Errorf("trace: azure CSV line %d: %d fields, want %d", line, len(row), s.nSites+1))
		return false
	}
	bin, err := parseIntField(row[0])
	if err != nil || bin < 0 {
		s.fail(fmt.Errorf("trace: azure CSV line %d: bad bin index %q", line, row[0]))
		return false
	}
	if bin <= s.lastBin {
		s.fail(fmt.Errorf("trace: azure CSV line %d: bin %d out of order after %d (bins must increase)",
			line, bin, s.lastBin))
		return false
	}
	for i := 0; i < s.nSites; i++ {
		v, err := parseFloatField(row[i+1])
		if err != nil || math.IsNaN(v) || v < 0 || v > maxBinCount {
			s.fail(fmt.Errorf("trace: azure CSV line %d: bad count %q for site %d", line, row[i+1], i))
			return false
		}
		s.counts[i] = int64(math.Round(v))
		s.emitted[i] = 0
	}
	s.bin = bin
	s.lastBin = bin
	s.heap.Reset()
	for i := 0; i < s.nSites; i++ {
		if s.counts[i] > 0 {
			s.nextT[i] = s.siteNext(i)
			s.heap.Push(i)
		}
	}
	return true
}

// siteNext returns site i's next arrival time within the current bin:
// count arrivals evenly spaced at (j+½)·width/count past the bin
// start. Only valid while emitted[i] < counts[i].
func (s *AzureSource) siteNext(i int) float64 {
	w := s.opts.BinWidth
	return float64(s.bin)*w + (float64(s.emitted[i])+0.5)*w/float64(s.counts[i])
}

// Next implements cluster.Source: the minimum (time, site) arrival of
// the current bin, refilling from the next row when the bin drains.
func (s *AzureSource) Next() (cluster.RequestRecord, bool) {
	for !s.done {
		if s.heap.Len() == 0 {
			if !s.nextRow() {
				break
			}
			continue
		}
		site := s.heap.Min()
		t := s.nextT[site]
		s.emitted[site]++
		if s.emitted[site] < s.counts[site] {
			s.nextT[site] = s.siteNext(site)
			s.heap.FixMin()
		} else {
			s.heap.PopMin()
		}
		s.n++
		return cluster.RequestRecord{
			Time:        t,
			Site:        site,
			ServiceTime: s.opts.Service.Sample(s.svcRng[site]),
		}, true
	}
	return cluster.RequestRecord{}, false
}

// Err returns the decode error that ended the stream, or nil after a
// clean end of file.
func (s *AzureSource) Err() error { return s.err }

// Sites returns the site count declared by the header.
func (s *AzureSource) Sites() int { return s.nSites }

// Count returns the number of records yielded so far.
func (s *AzureSource) Count() uint64 { return s.n }
