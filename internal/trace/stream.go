package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/cluster"
)

// The request-record interchange format: one request per row, times in
// seconds (nondecreasing), sites as 0-based integers, service times in
// seconds on the reference server. Floats are written with 'g'/-1
// precision, so a write→stream round trip is bit-exact.
var requestCSVHeader = []string{"time", "site", "service"}

// RequestSource streams cluster.RequestRecords decoded from an
// io.Reader one row at a time — a cluster.Source over a trace file that
// never holds more than the current row, so replay memory is
// independent of file length. Rows are scanned into a reused buffer and
// parsed with strconv directly (no encoding/csv), so the steady-state
// decode is allocation-free; the dialect is the plain unquoted one the
// package's writers emit. Decoding problems (malformed fields, time
// regressions, truncated rows) end the stream and are reported by Err;
// the source never panics and never silently drops rows.
type RequestSource struct {
	sc       *lineScanner
	err      error
	done     bool
	last     float64
	sites    int
	maxSites int
	n        uint64
}

// StreamRequestsCSV opens a streaming decoder over the request CSV
// format. The header row is consumed immediately; records are decoded
// lazily by Next. Callers must check Err after the source drains to
// distinguish end-of-file from a decode failure.
func StreamRequestsCSV(r io.Reader) *RequestSource {
	s := &RequestSource{sc: newLineScanner(r), last: math.Inf(-1)}
	line, ok := s.sc.scan()
	switch {
	case !ok && s.sc.err != nil:
		s.fail(fmt.Errorf("trace: request CSV header: %w", s.sc.err))
	case !ok:
		s.fail(fmt.Errorf("trace: request CSV is empty"))
	default:
		row := s.sc.split(line)
		bad := len(row) != len(requestCSVHeader)
		for i := range requestCSVHeader {
			if bad || !bytes.Equal(row[i], []byte(requestCSVHeader[i])) {
				bad = true
				break
			}
		}
		if bad {
			s.fail(fmt.Errorf("trace: request CSV header %q, want %v", line, requestCSVHeader))
		}
	}
	return s
}

// fail ends the stream with err.
func (s *RequestSource) fail(err error) {
	s.err = err
	s.done = true
}

// Next implements cluster.Source. After the first false it keeps
// returning false; check Err to learn whether the file ended cleanly.
func (s *RequestSource) Next() (cluster.RequestRecord, bool) {
	if s.done {
		return cluster.RequestRecord{}, false
	}
	lineBytes, ok := s.sc.scan()
	if !ok {
		s.done = true
		if s.sc.err != nil {
			s.err = fmt.Errorf("trace: request CSV: %w", s.sc.err)
		}
		return cluster.RequestRecord{}, false
	}
	line := s.sc.line
	row := s.sc.split(lineBytes)
	if len(row) != len(requestCSVHeader) {
		s.fail(fmt.Errorf("trace: request CSV line %d: %d fields, want %d",
			line, len(row), len(requestCSVHeader)))
		return cluster.RequestRecord{}, false
	}
	t, err := parseFloatField(row[0])
	if err != nil || t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		// Negative times are rejected outright: the replay engine
		// panics on events scheduled before time zero, and this decoder
		// must error instead of handing it one.
		s.fail(fmt.Errorf("trace: request CSV line %d: bad time %q", line, row[0]))
		return cluster.RequestRecord{}, false
	}
	if t < s.last {
		s.fail(fmt.Errorf("trace: request CSV line %d: time %v regresses below %v (rows must be nondecreasing)",
			line, t, s.last))
		return cluster.RequestRecord{}, false
	}
	site, err := parseIntField(row[1])
	if err != nil || site < 0 {
		s.fail(fmt.Errorf("trace: request CSV line %d: bad site %q", line, row[1]))
		return cluster.RequestRecord{}, false
	}
	if s.maxSites > 0 && site >= s.maxSites {
		s.fail(fmt.Errorf("trace: request CSV line %d: site %d outside the replay's %d sites",
			line, site, s.maxSites))
		return cluster.RequestRecord{}, false
	}
	svc, err := parseFloatField(row[2])
	if err != nil || svc < 0 || math.IsNaN(svc) || math.IsInf(svc, 0) {
		s.fail(fmt.Errorf("trace: request CSV line %d: bad service time %q", line, row[2]))
		return cluster.RequestRecord{}, false
	}
	s.last = t
	if site+1 > s.sites {
		s.sites = site + 1
	}
	s.n++
	return cluster.RequestRecord{Time: t, Site: site, ServiceTime: svc}, true
}

// Err returns the decode error that ended the stream, or nil after a
// clean end of file.
func (s *RequestSource) Err() error { return s.err }

// LimitSites makes the decoder error on records whose site id is >= n —
// set it to the replayed topology's home-site count so a trace/topology
// mismatch surfaces as a decode error from cluster.Run instead of a
// replay panic at the out-of-range record's arrival. 0 (the default)
// accepts any site id.
func (s *RequestSource) LimitSites(n int) { s.maxSites = n }

// Sites returns the number of sites observed so far (max site id + 1).
func (s *RequestSource) Sites() int { return s.sites }

// Count returns the number of records yielded so far.
func (s *RequestSource) Count() uint64 { return s.n }

// TimeScale wraps a source, multiplying every record's arrival time by
// factor while leaving sites and service demands untouched: replaying a
// fixed trace with factor < 1 compresses its timeline (the same work
// offered at a higher rate), factor > 1 stretches it. This is how the
// CLI sweeps a recorded trace across its rate axis — generator sweeps
// re-derive arrivals instead. The wrapper delegates Err, so a decode
// failure in the underlying source still surfaces. The factor must be
// positive and finite: zero or negative factors would collapse or
// reverse the timeline, breaking the nondecreasing-time contract every
// replay engine relies on, so they panic here instead of corrupting a
// replay downstream.
func TimeScale(src cluster.Source, factor float64) cluster.Source {
	if factor <= 0 || math.IsInf(factor, 1) || math.IsNaN(factor) {
		panic(fmt.Sprintf("trace: TimeScale factor %v (want positive and finite)", factor))
	}
	return &timeScaleSource{src: src, factor: factor}
}

type timeScaleSource struct {
	src    cluster.Source
	factor float64
}

// Next implements cluster.Source.
func (s *timeScaleSource) Next() (cluster.RequestRecord, bool) {
	rec, ok := s.src.Next()
	if !ok {
		return cluster.RequestRecord{}, false
	}
	rec.Time *= s.factor
	return rec, true
}

// Err implements cluster.FallibleSource by delegation.
func (s *timeScaleSource) Err() error {
	if fs, ok := s.src.(cluster.FallibleSource); ok {
		return fs.Err()
	}
	return nil
}

// WriteRequestsCSV writes every record of src in the request CSV
// format, returning the row count. Pair with cluster.Stream to export
// synthetic workloads as interchange files without materializing them.
// A source that ends on a decode failure (it exposes Err, like the
// streaming decoders) surfaces that error here, so a truncated export
// is never reported as success.
func WriteRequestsCSV(w io.Writer, src cluster.Source) (int, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(requestCSVHeader); err != nil {
		return 0, err
	}
	row := make([]string, 3)
	n := 0
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		row[0] = strconv.FormatFloat(rec.Time, 'g', -1, 64)
		row[1] = strconv.Itoa(rec.Site)
		row[2] = strconv.FormatFloat(rec.ServiceTime, 'g', -1, 64)
		if err := cw.Write(row); err != nil {
			return n, err
		}
		n++
	}
	if e, ok := src.(cluster.FallibleSource); ok {
		if err := e.Err(); err != nil {
			return n, fmt.Errorf("trace: source ended early: %w", err)
		}
	}
	cw.Flush()
	return n, cw.Error()
}
