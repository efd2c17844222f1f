package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netem"
)

// drain pulls every record from a source, asserting monotone times.
func drain(t *testing.T, src cluster.Source) []cluster.RequestRecord {
	t.Helper()
	var out []cluster.RequestRecord
	last := -1.0
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if rec.Time < last {
			t.Fatalf("record %d: time %v regresses below %v", len(out), rec.Time, last)
		}
		last = rec.Time
		out = append(out, rec)
	}
	return out
}

// TestRequestCSVRoundTrip: a generated workload written to the request
// CSV format and streamed back is bit-identical, and the slurping
// decoder agrees with the streaming one record for record.
func TestRequestCSVRoundTrip(t *testing.T) {
	spec := cluster.GenSpec{Sites: 3, Duration: 60, PerSiteRate: 6, Seed: 9}
	want := &cluster.WorkloadTrace{Records: drain(t, cluster.Stream(spec)), Sites: spec.Sites}

	var buf bytes.Buffer
	n, err := WriteRequestsCSV(&buf, cluster.Stream(spec))
	if err != nil {
		t.Fatal(err)
	}
	if n != want.Len() {
		t.Fatalf("wrote %d rows, trace has %d", n, want.Len())
	}

	src := StreamRequestsCSV(bytes.NewReader(buf.Bytes()))
	got := drain(t, src)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != want.Len() {
		t.Fatalf("streamed %d records, want %d", len(got), want.Len())
	}
	for i, rec := range want.Records {
		if got[i] != rec {
			t.Fatalf("record %d diverges: streamed %+v, generated %+v", i, got[i], rec)
		}
	}
	if src.Sites() != want.Sites {
		t.Errorf("Sites() = %d, want %d", src.Sites(), want.Sites)
	}
	if src.Count() != uint64(want.Len()) {
		t.Errorf("Count() = %d, want %d", src.Count(), want.Len())
	}

	slurped, err := ReadRequestsCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if slurped.Len() != len(got) || slurped.Sites != want.Sites {
		t.Fatalf("slurped %d records/%d sites, want %d/%d",
			slurped.Len(), slurped.Sites, len(got), want.Sites)
	}
	for i := range got {
		if slurped.Records[i] != got[i] {
			t.Fatalf("slurped record %d diverges from streamed: %+v vs %+v",
				i, slurped.Records[i], got[i])
		}
	}
}

// TestRequestCSVErrors: malformed inputs end the stream with an error —
// never a panic, never a silently dropped row.
func TestRequestCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad-header":       "when,where,how\n1,0,0.1\n",
		"missing-field":    "time,site,service\n1,0\n",
		"extra-field":      "time,site,service\n1,0,0.1,9\n",
		"bad-time":         "time,site,service\nnope,0,0.1\n",
		"negative-time":    "time,site,service\n-1,0,0.1\n",
		"nan-time":         "time,site,service\nNaN,0,0.1\n",
		"inf-time":         "time,site,service\n+Inf,0,0.1\n",
		"bad-site":         "time,site,service\n1,1.5,0.1\n",
		"negative-site":    "time,site,service\n1,-2,0.1\n",
		"bad-service":      "time,site,service\n1,0,fast\n",
		"negative-service": "time,site,service\n1,0,-0.1\n",
		"time-regression":  "time,site,service\n2,0,0.1\n1,0,0.1\n",
		"truncated-quote":  "time,site,service\n1,0,\"0.1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			src := StreamRequestsCSV(strings.NewReader(in))
			for {
				if _, ok := src.Next(); !ok {
					break
				}
			}
			if src.Err() == nil {
				t.Errorf("input %q decoded without error", in)
			}
			// The stream must stay ended.
			if _, ok := src.Next(); ok {
				t.Error("errored source yielded another record")
			}
			if _, err := ReadRequestsCSV(strings.NewReader(in)); err == nil {
				t.Error("slurping decoder accepted the malformed input")
			}
		})
	}
}

// TestWriteRequestsCSVPropagatesSourceError: exporting from a decoder
// that fails mid-stream must report the failure, not a truncated file.
func TestWriteRequestsCSVPropagatesSourceError(t *testing.T) {
	corrupt := "time,site,service\n1,0,0.1\n2,0,broken\n"
	var buf bytes.Buffer
	n, err := WriteRequestsCSV(&buf, StreamRequestsCSV(strings.NewReader(corrupt)))
	if err == nil {
		t.Fatalf("wrote %d rows from a corrupt source without error", n)
	}
}

// TestRequestCSVEqualTimesAllowed: nondecreasing means ties are legal
// (batch arrivals share an instant).
func TestRequestCSVEqualTimesAllowed(t *testing.T) {
	in := "time,site,service\n1,0,0.1\n1,1,0.2\n1,0,0.3\n"
	src := StreamRequestsCSV(strings.NewReader(in))
	recs := drain(t, src)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
}

// azureFixture is a well-formed per-bin count file.
const azureFixture = `bin,site0,site1,site2
0,4,0,2
1,1,3,0
3,2,2,2
`

// TestAzureCSVStreamMatchesSlurp: streaming and slurping decodes of the
// same count file agree record for record, respect per-bin counts, and
// stay deterministic for a seed.
func TestAzureCSVStreamMatchesSlurp(t *testing.T) {
	opts := AzureStreamOptions{BinWidth: 60, Seed: 5}
	src := StreamAzureCSV(strings.NewReader(azureFixture), opts)
	got := drain(t, src)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4+2+1+3+2+2+2 {
		t.Fatalf("decoded %d records, want 16 (the fixture's total count)", len(got))
	}
	if src.Sites() != 3 {
		t.Errorf("Sites() = %d, want 3", src.Sites())
	}
	// Bin 2 is absent: no arrivals may fall in [120, 180).
	for i, rec := range got {
		if rec.Time >= 120 && rec.Time < 180 {
			t.Errorf("record %d at %v lands in the skipped bin", i, rec.Time)
		}
		if rec.ServiceTime <= 0 {
			t.Errorf("record %d has service time %v", i, rec.ServiceTime)
		}
	}

	slurped, err := ReadAzureCSV(strings.NewReader(azureFixture), opts)
	if err != nil {
		t.Fatal(err)
	}
	if slurped.Len() != len(got) {
		t.Fatalf("slurped %d records, streamed %d", slurped.Len(), len(got))
	}
	for i := range got {
		if slurped.Records[i] != got[i] {
			t.Fatalf("record %d diverges: slurped %+v, streamed %+v", i, slurped.Records[i], got[i])
		}
	}

	// Determinism: a second stream with the same seed is identical; a
	// different seed diverges in service times.
	again := drain(t, StreamAzureCSV(strings.NewReader(azureFixture), opts))
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("re-decode record %d diverges: %+v vs %+v", i, again[i], got[i])
		}
	}
	other := drain(t, StreamAzureCSV(strings.NewReader(azureFixture), AzureStreamOptions{BinWidth: 60, Seed: 6}))
	same := true
	for i := range got {
		if other[i].ServiceTime != got[i].ServiceTime {
			same = false
		}
		if other[i].Time != got[i].Time || other[i].Site != got[i].Site {
			t.Fatalf("seed must only affect service times, record %d moved", i)
		}
	}
	if same {
		t.Error("different seeds produced identical service times")
	}
}

// TestAzureCSVGeneratedRoundTrip: a GenerateAzure series written with
// WriteSiteSeriesCSV streams back with the exact envelope counts.
func TestAzureCSVGeneratedRoundTrip(t *testing.T) {
	spec := DefaultAzureSpec()
	spec.Minutes = 6
	series := GenerateAzure(spec)
	var buf bytes.Buffer
	if err := WriteSiteSeriesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	src := StreamAzureCSV(bytes.NewReader(buf.Bytes()), AzureStreamOptions{BinWidth: 60, Seed: 1})
	recs := drain(t, src)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	perSite := make([]float64, spec.Sites)
	for _, r := range recs {
		perSite[r.Site]++
	}
	for i, s := range series {
		if perSite[i] != s.Total() {
			t.Errorf("site %d decoded %v records, envelope says %v", i, perSite[i], s.Total())
		}
	}
}

// TestAzureCSVErrors: malformed count files error instead of panicking
// or dropping rows.
func TestAzureCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad-header":      "minute,site0\n0,1\n",
		"no-sites":        "bin\n0\n",
		"missing-field":   "bin,site0,site1\n0,1\n",
		"bad-bin":         "bin,site0\nzero,1\n",
		"negative-bin":    "bin,site0\n-1,1\n",
		"bin-regression":  "bin,site0\n1,1\n0,2\n",
		"bin-duplicate":   "bin,site0\n1,1\n1,2\n",
		"bad-count":       "bin,site0\n0,many\n",
		"negative-count":  "bin,site0\n0,-3\n",
		"nan-count":       "bin,site0\n0,NaN\n",
		"huge-count":      "bin,site0\n0,1e30\n",
		"truncated-quote": "bin,site0\n0,\"3\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			src := StreamAzureCSV(strings.NewReader(in), AzureStreamOptions{})
			for i := 0; i < 1000; i++ {
				if _, ok := src.Next(); !ok {
					break
				}
			}
			if src.Err() == nil {
				t.Errorf("input %q decoded without error", in)
			}
			if _, err := ReadAzureCSV(strings.NewReader(in), AzureStreamOptions{}); err == nil {
				t.Error("slurping decoder accepted the malformed input")
			}
		})
	}
}

// TestLimitSitesTurnsMismatchIntoError: a well-formed trace whose site
// ids exceed the replayed topology's site count must fail as a decode
// error (via LimitSites + cluster.Run's FallibleSource probe), not as
// a replay panic at the out-of-range arrival.
func TestLimitSitesTurnsMismatchIntoError(t *testing.T) {
	in := "time,site,service\n1,0,0.1\n2,7,0.1\n"
	topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
		{Name: "edge", Sites: 3, ServersPerSite: 1, Path: netem.Constant("zero", 0)},
	}}
	src := StreamRequestsCSV(strings.NewReader(in))
	src.LimitSites(3)
	if _, err := cluster.Run(src, topo, cluster.Options{}); err == nil {
		t.Fatal("site-7 record replayed into a 3-site topology without error")
	}
}

// TestRunSurfacesDecoderError: a decoder failing mid-file must turn
// the whole cluster.Run into an error, not a clean result over the
// decoded prefix.
func TestRunSurfacesDecoderError(t *testing.T) {
	corrupt := "time,site,service\n1,0,0.1\n2,0,0.1\n3,0,broken\n"
	topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
		{Name: "edge", Sites: 1, ServersPerSite: 1, Path: netem.Constant("zero", 0)},
	}}
	res, err := cluster.Run(StreamRequestsCSV(strings.NewReader(corrupt)), topo, cluster.Options{})
	if err == nil {
		t.Fatalf("Run returned a clean result (%d offered) over a corrupt source", res.Offered)
	}
}

// TestAzureCSVThroughTopology: the streaming decoder drives a topology
// run directly, bit-identical to replaying its slurped trace.
func TestAzureCSVThroughTopology(t *testing.T) {
	spec := DefaultAzureSpec()
	spec.Minutes = 5
	spec.Sites = 3
	series := GenerateAzure(spec)
	var buf bytes.Buffer
	if err := WriteSiteSeriesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	opts := AzureStreamOptions{BinWidth: 60, Seed: 7}
	topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
		{Name: "edge", Sites: 3, ServersPerSite: 2, Path: netem.EdgePath},
	}}
	run := func(src cluster.Source) *cluster.TopologyResult {
		res, err := cluster.Run(src, topo, cluster.Options{Warmup: 30, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tr, err := ReadAzureCSV(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := run(tr.Source())
	got := run(StreamAzureCSV(bytes.NewReader(buf.Bytes()), opts))
	if got.Offered != want.Offered || got.Completed != want.Completed ||
		got.EndToEnd.Mean() != want.EndToEnd.Mean() ||
		got.EndToEnd.P95() != want.EndToEnd.P95() {
		t.Errorf("streamed topology run diverges from slurped: offered %d/%d mean %v/%v",
			got.Offered, want.Offered, got.EndToEnd.Mean(), want.EndToEnd.Mean())
	}
}

// TestTimeScale: the wrapper rescales arrival times only, and decode
// failures in the wrapped source still surface through Err.
func TestTimeScale(t *testing.T) {
	const csv = "time,site,service\n1,0,0.5\n2,1,0.25\n4,0,0.125\n"
	want := drain(t, StreamRequestsCSV(strings.NewReader(csv)))
	got := drain(t, TimeScale(StreamRequestsCSV(strings.NewReader(csv)), 0.5))
	if len(got) != len(want) {
		t.Fatalf("scaled stream has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Time != want[i].Time*0.5 {
			t.Errorf("record %d: time %v, want %v", i, got[i].Time, want[i].Time*0.5)
		}
		if got[i].Site != want[i].Site || got[i].ServiceTime != want[i].ServiceTime {
			t.Errorf("record %d: site/service changed: %+v vs %+v", i, got[i], want[i])
		}
	}

	bad := TimeScale(StreamRequestsCSV(strings.NewReader("time,site,service\n1,0,0.5\nx,0,0.5\n")), 2)
	if _, ok := bad.Next(); !ok {
		t.Fatal("first record should decode")
	}
	if _, ok := bad.Next(); ok {
		t.Fatal("second record should fail")
	}
	if err := bad.(cluster.FallibleSource).Err(); err == nil {
		t.Fatal("decode error lost by the TimeScale wrapper")
	}
}

// TestTimeScaleRejectsDegenerateFactors: zero, negative and non-finite
// factors would collapse or reverse the timeline, violating the
// nondecreasing-time contract every replay engine assumes — they must
// panic at construction, not corrupt a replay later.
func TestTimeScaleRejectsDegenerateFactors(t *testing.T) {
	for _, factor := range []float64{0, -1, -0.5, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TimeScale(%v) should panic", factor)
				}
			}()
			TimeScale(StreamRequestsCSV(strings.NewReader("time,site,service\n1,0,0.5\n")), factor)
		}()
	}
}

// TestTimeScaleSingleRecord: the degenerate one-row trace scales and
// terminates cleanly — no second Next needed to observe the end, no
// spurious error.
func TestTimeScaleSingleRecord(t *testing.T) {
	src := TimeScale(StreamRequestsCSV(strings.NewReader("time,site,service\n2,0,0.5\n")), 0.25)
	rec, ok := src.Next()
	if !ok {
		t.Fatal("single record should decode")
	}
	if rec.Time != 0.5 || rec.Site != 0 || rec.ServiceTime != 0.5 {
		t.Errorf("scaled record = %+v, want time 0.5 site 0 service 0.5", rec)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("stream should end after its only record")
	}
	if err := src.(cluster.FallibleSource).Err(); err != nil {
		t.Fatalf("clean single-record stream reports error: %v", err)
	}
}

// TestTimeScaleRegressionPropagates: a time regression in the wrapped
// stream is a decode error, and it must still abort a full topology
// replay when the decoder is wrapped in TimeScale — scaling cannot
// launder a broken timeline into a clean run.
func TestTimeScaleRegressionPropagates(t *testing.T) {
	const regressing = "time,site,service\n2,0,0.5\n1,0,0.5\n"
	src := TimeScale(StreamRequestsCSV(strings.NewReader(regressing)), 0.5)
	topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
		{Name: "edge", Sites: 1, ServersPerSite: 1, Path: netem.Constant("zero", 0)},
	}}
	res, err := cluster.Run(src, topo, cluster.Options{})
	if err == nil {
		t.Fatalf("Run returned a clean result (%d offered) over a regressing scaled source", res.Offered)
	}
	if !strings.Contains(err.Error(), "time") {
		t.Errorf("error should mention the time regression: %v", err)
	}
}
