package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netem"
)

// binaryFixtureSpec generates a workload with same-instant batch ties
// and multiple sites — the cases that stress delta encoding (zero
// deltas) and site varints.
func binaryFixtureSpec() cluster.GenSpec {
	return cluster.GenSpec{Sites: 5, Duration: 90, PerSiteRate: 7, Seed: 17}
}

// encodeBinary writes spec's trace to an in-memory .etb buffer.
func encodeBinary(t *testing.T, spec cluster.GenSpec) ([]byte, *cluster.WorkloadTrace) {
	t.Helper()
	want := &cluster.WorkloadTrace{Records: drain(t, cluster.Stream(spec)), Sites: spec.Sites}
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, cluster.Stream(spec))
	if err != nil {
		t.Fatal(err)
	}
	if n != want.Len() {
		t.Fatalf("wrote %d records, trace has %d", n, want.Len())
	}
	return buf.Bytes(), want
}

// TestBinaryRoundTrip: write→stream is the identity, bit for bit, and
// the slurping decoder agrees with the streaming one.
func TestBinaryRoundTrip(t *testing.T) {
	data, want := encodeBinary(t, binaryFixtureSpec())
	src := StreamBinary(bytes.NewReader(data))
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

	slurped, err := ReadBinary(bytes.NewReader(data))
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

// TestBinaryMatchesCSV: the same source encoded through both formats
// decodes to identical records — the contract `edgesim -compile` relies
// on when it converts CSV traces to .etb.
func TestBinaryMatchesCSV(t *testing.T) {
	spec := binaryFixtureSpec()
	var csvBuf, etbBuf bytes.Buffer
	if _, err := WriteRequestsCSV(&csvBuf, cluster.Stream(spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBinary(&etbBuf, cluster.Stream(spec)); err != nil {
		t.Fatal(err)
	}
	fromCSV := drain(t, StreamRequestsCSV(bytes.NewReader(csvBuf.Bytes())))
	fromETB := drain(t, StreamBinary(bytes.NewReader(etbBuf.Bytes())))
	if len(fromCSV) != len(fromETB) {
		t.Fatalf("CSV decoded %d records, binary %d", len(fromCSV), len(fromETB))
	}
	for i := range fromCSV {
		if fromCSV[i] != fromETB[i] {
			t.Fatalf("record %d diverges across formats: csv %+v, etb %+v",
				i, fromCSV[i], fromETB[i])
		}
	}
	if etbBuf.Len() >= csvBuf.Len() {
		t.Errorf("binary trace (%d bytes) not smaller than CSV (%d bytes)",
			etbBuf.Len(), csvBuf.Len())
	}
}

// TestBinaryMultiBlock: a trace spanning several blocks round-trips —
// the delta chain and CRC framing must survive block boundaries.
func TestBinaryMultiBlock(t *testing.T) {
	spec := cluster.GenSpec{Sites: 4, Duration: 400, PerSiteRate: 8, Seed: 18}
	data, want := encodeBinary(t, spec)
	if want.Len() <= binaryBlockRecords {
		t.Fatalf("fixture has %d records, need > %d for a multi-block test",
			want.Len(), binaryBlockRecords)
	}
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("decoded %d records, want %d", got.Len(), want.Len())
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d diverges: %+v vs %+v", i, got.Records[i], want.Records[i])
		}
	}
}

// TestBinaryTruncation: a .etb prefix cut at every length reports an
// error through Err — plain EOF is never a clean end, because the
// format carries an explicit end marker.
func TestBinaryTruncation(t *testing.T) {
	data, _ := encodeBinary(t, cluster.GenSpec{Sites: 2, Duration: 30, PerSiteRate: 5, Seed: 19})
	for cut := 0; cut < len(data); cut++ {
		src := StreamBinary(bytes.NewReader(data[:cut]))
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
		if src.Err() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
	}
}

// TestBinaryCorruption: flipping any single byte of a .etb file either
// fails the decode via Err or — never — silently changes records. (A
// flipped bit in a record field is caught by the block CRC; a flipped
// bit in the framing is caught by the structural checks.)
func TestBinaryCorruption(t *testing.T) {
	data, want := encodeBinary(t, cluster.GenSpec{Sites: 2, Duration: 20, PerSiteRate: 5, Seed: 20})
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x40
		src := StreamBinary(bytes.NewReader(corrupt))
		var got []cluster.RequestRecord
		for len(got) <= want.Len() {
			rec, ok := src.Next()
			if !ok {
				break
			}
			got = append(got, rec)
		}
		if src.Err() != nil {
			continue
		}
		// The flip decoded cleanly (e.g. inside a varint's redundant
		// encoding is impossible, but a flip may cancel out elsewhere —
		// then the records must be untouched).
		if len(got) != want.Len() {
			t.Fatalf("byte %d flipped: clean decode with %d records, want %d", i, len(got), want.Len())
		}
		for j := range got {
			if got[j] != want.Records[j] {
				t.Fatalf("byte %d flipped: clean decode with altered record %d: %+v vs %+v",
					i, j, got[j], want.Records[j])
			}
		}
	}
}

// TestBinaryTrailingGarbage: bytes after the end marker are an error,
// not ignored.
func TestBinaryTrailingGarbage(t *testing.T) {
	data, _ := encodeBinary(t, cluster.GenSpec{Sites: 2, Duration: 10, PerSiteRate: 3, Seed: 21})
	src := StreamBinary(bytes.NewReader(append(append([]byte(nil), data...), 0xFF)))
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	if src.Err() == nil {
		t.Error("trailing garbage after the end marker decoded without error")
	}
}

// TestBinaryHeaderErrors: wrong magic, wrong version and empty input
// all fail fast with a decode error.
func TestBinaryHeaderErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"short-magic":   []byte("ET"),
		"wrong-magic":   []byte("NOPE\x01\x00"),
		"csv-input":     []byte("time,site,service\n1,0,0.1\n"),
		"wrong-version": []byte("ETB1\x02\x00"),
		"no-version":    []byte("ETB1"),
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			src := StreamBinary(bytes.NewReader(in))
			if _, ok := src.Next(); ok {
				t.Error("bad header yielded a record")
			}
			if src.Err() == nil {
				t.Errorf("input %q decoded without error", in)
			}
		})
	}
}

// TestBinaryEmptyTrace: zero records is a legal file — header plus end
// marker — and decodes cleanly to nothing.
func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, StreamRequestsCSV(strings.NewReader("time,site,service\n")))
	if err != nil || n != 0 {
		t.Fatalf("empty write: n=%d err=%v", n, err)
	}
	src := StreamBinary(bytes.NewReader(buf.Bytes()))
	if _, ok := src.Next(); ok {
		t.Error("empty trace yielded a record")
	}
	if err := src.Err(); err != nil {
		t.Errorf("empty trace decode error: %v", err)
	}
}

// TestWriteBinaryRejectsInvalid: the writer refuses records the decoder
// would have to reject — regressing times, negative or non-finite
// fields — and propagates source decode failures.
func TestWriteBinaryRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"regression":       "time,site,service\n2,0,0.1\n1,0,0.1\n",
		"corrupt-mid-file": "time,site,service\n1,0,0.1\n2,0,broken\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := WriteBinary(&buf, StreamRequestsCSV(strings.NewReader(in))); err == nil {
				t.Error("invalid source encoded without error")
			}
		})
	}
}

// TestBinaryLimitSites: the site-limit guard turns a trace/topology
// mismatch into a decode error, exactly like the CSV decoder's.
func TestBinaryLimitSites(t *testing.T) {
	data, _ := encodeBinary(t, binaryFixtureSpec()) // 5 sites
	src := StreamBinary(bytes.NewReader(data))
	src.LimitSites(3)
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	if src.Err() == nil {
		t.Error("site 3+ records decoded under LimitSites(3) without error")
	}
}

// TestBinaryThroughTopology: a topology replay fed by the binary
// decoder is bit-identical to one fed by the CSV decoder of the same
// workload — the end-to-end contract of `-compile` + `-trace`.
func TestBinaryThroughTopology(t *testing.T) {
	spec := binaryFixtureSpec()
	var csvBuf, etbBuf bytes.Buffer
	if _, err := WriteRequestsCSV(&csvBuf, cluster.Stream(spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBinary(&etbBuf, cluster.Stream(spec)); err != nil {
		t.Fatal(err)
	}
	topo := cluster.Topology{Name: "edge", Tiers: []cluster.Tier{
		{Name: "edge", Sites: spec.Sites, ServersPerSite: 2, Path: netem.EdgePath},
	}}
	run := func(src cluster.Source) *cluster.TopologyResult {
		res, err := cluster.Run(src, topo, cluster.Options{Warmup: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(StreamRequestsCSV(bytes.NewReader(csvBuf.Bytes())))
	got := run(StreamBinary(bytes.NewReader(etbBuf.Bytes())))
	if got.Offered != want.Offered || got.Completed != want.Completed ||
		got.EndToEnd.Mean() != want.EndToEnd.Mean() ||
		got.EndToEnd.P95() != want.EndToEnd.P95() {
		t.Errorf("binary-fed replay diverges from CSV-fed: offered %d/%d mean %v/%v",
			got.Offered, want.Offered, got.EndToEnd.Mean(), want.EndToEnd.Mean())
	}
}
