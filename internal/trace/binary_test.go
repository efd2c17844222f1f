package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
// on when it converts CSV traces to .etb. A generated workload's .etb
// is also smaller than its CSV. A CSV whose first time is −0 compiles
// to an .etb its decoder accepts, with the time read as +0.
func TestBinaryMatchesCSV(t *testing.T) {
	spec := binaryFixtureSpec()
	var generated bytes.Buffer
	if _, err := WriteRequestsCSV(&generated, cluster.Stream(spec)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		csv     string
		src     func() cluster.Source // what WriteBinary encodes
		smaller bool                  // the .etb must be smaller than the CSV
	}{
		{"generated", generated.String(), func() cluster.Source { return cluster.Stream(spec) }, true},
		{"negative zero", "time,site,service\n-0,0,0.1\n0,1,0.2\n", nil, false},
	} {
		if tc.src == nil {
			tc.src = func() cluster.Source { return StreamRequestsCSV(strings.NewReader(tc.csv)) }
		}
		var etbBuf bytes.Buffer
		if _, err := WriteBinary(&etbBuf, tc.src()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		csvSrc := StreamRequestsCSV(strings.NewReader(tc.csv))
		etbSrc := StreamBinary(bytes.NewReader(etbBuf.Bytes()))
		fromCSV, fromETB := drain(t, csvSrc), drain(t, etbSrc)
		if err := etbSrc.Err(); err != nil {
			t.Fatalf("%s: decoding the .etb: %v", tc.name, err)
		}
		if len(fromCSV) != len(fromETB) || len(fromCSV) == 0 {
			t.Fatalf("%s: CSV decoded %d records, binary %d", tc.name, len(fromCSV), len(fromETB))
		}
		for i := range fromCSV {
			if fromCSV[i] != fromETB[i] {
				t.Fatalf("%s: record %d diverges across formats: csv %+v, etb %+v",
					tc.name, i, fromCSV[i], fromETB[i])
			}
		}
		if tc.smaller && etbBuf.Len() >= len(tc.csv) {
			t.Errorf("%s: binary trace (%d bytes) not smaller than CSV (%d bytes)",
				tc.name, etbBuf.Len(), len(tc.csv))
		}
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

// etbField is one record as its three encoded fields, raw, so a test
// can write values WriteBinary refuses to encode.
type etbField struct{ delta, site, svc uint64 }

// etbFields turns nondecreasing records into their encoded fields.
func etbFields(recs []cluster.RequestRecord) []etbField {
	fs := make([]etbField, len(recs))
	prev := uint64(0)
	for i, r := range recs {
		t := math.Float64bits(r.Time)
		fs[i] = etbField{t - prev, uint64(r.Site), math.Float64bits(r.ServiceTime)}
		prev = t
	}
	return fs
}

// etbEncode frames fs as a .etb stream of per records to a block. tweak,
// when set, edits block b's payload before its length and CRC are
// written, so a corrupt record reaches the record checks, not the CRC.
func etbEncode(fs []etbField, per int, tweak func(b int, p []byte) []byte) []byte {
	data := binary.AppendUvarint([]byte(BinaryMagic), binaryVersion)
	for b := 0; len(fs) > 0; b++ {
		blk := fs[:min(per, len(fs))]
		fs = fs[len(blk):]
		var p []byte
		for _, f := range blk {
			p = binary.AppendUvarint(p, f.delta)
			p = binary.AppendUvarint(p, f.site)
			p = binary.LittleEndian.AppendUint64(p, f.svc)
		}
		if tweak != nil {
			p = tweak(b, p)
		}
		data = binary.AppendUvarint(data, uint64(len(blk)))
		data = binary.AppendUvarint(data, uint64(len(p)))
		data = append(data, p...)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(p))
	}
	return append(data, 0)
}

// etbPayloads returns the bounds of each block's payload in a
// well-formed stream.
func etbPayloads(data []byte) [][2]int {
	var bounds [][2]int
	at := len(BinaryMagic) + 1
	for {
		n, k := binary.Uvarint(data[at:])
		if at += k; n == 0 {
			return bounds
		}
		plen, k := binary.Uvarint(data[at:])
		at += k
		bounds = append(bounds, [2]int{at, at + int(plen)})
		at += int(plen) + 4
	}
}

// inPayload reports whether byte at falls inside one of the payloads.
func inPayload(payloads [][2]int, at int) bool {
	for _, p := range payloads {
		if at >= p[0] && at < p[1] {
			return true
		}
	}
	return false
}

// binaryDiff drains BinarySource and refBinarySource over data in
// lockstep. When limit > 0 both get LimitSites(limit) before Next call
// number at (0: before the first). It describes the first divergence —
// a record (compared bit for bit), ok, Count() or Sites() after a Next,
// or the Err() text at the end — or returns "" when there is none.
func binaryDiff(data []byte, limit, at int) string {
	got, want := StreamBinary(bytes.NewReader(data)), streamRefBinary(bytes.NewReader(data))
	same := func(a, b cluster.RequestRecord) bool {
		return math.Float64bits(a.Time) == math.Float64bits(b.Time) && a.Site == b.Site &&
			math.Float64bits(a.ServiceTime) == math.Float64bits(b.ServiceTime)
	}
	for i := 0; ; i++ {
		if limit > 0 && i == at {
			got.LimitSites(limit)
			want.LimitSites(limit)
		}
		g, gok := got.Next()
		w, wok := want.Next()
		if !same(g, w) || gok != wok || got.Count() != want.Count() || got.Sites() != want.Sites() {
			return fmt.Sprintf("Next %d: got %+v ok=%v count=%d sites=%d, want %+v ok=%v count=%d sites=%d",
				i, g, gok, got.Count(), got.Sites(), w, wok, want.Count(), want.Sites())
		}
		if !gok {
			break
		}
	}
	if _, ok := got.Next(); ok {
		return "ended decoder yielded another record"
	}
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if g, w := text(got.Err()), text(want.Err()); g != w {
		return fmt.Sprintf("Err() = %s, want %s", g, w)
	}
	return ""
}

// TestBinaryMatchesReference: the block decoder returns what the
// record-at-a-time reference returns — every record, Count, Sites and
// the final error text — on a valid 200-site multi-block stream and on
// cut, bit-flipped and field-corrupted copies of it, with LimitSites
// set before the first Next and between two Next calls.
func TestBinaryMatchesReference(t *testing.T) {
	big, _ := encodeBinary(t, cluster.GenSpec{Sites: 200, Duration: 60, PerSiteRate: 1, Seed: 22})
	recs := drain(t, StreamBinary(bytes.NewReader(big)))
	if len(recs) <= 2*binaryBlockRecords {
		t.Fatalf("fixture has %d records, need > %d for three blocks", len(recs), 2*binaryBlockRecords)
	}
	fs := etbFields(recs)
	if !bytes.Equal(etbEncode(fs, binaryBlockRecords, nil), big) {
		t.Fatal("etbEncode frames records differently from WriteBinary")
	}
	check := func(what string, data []byte, limit, at int) {
		t.Helper()
		if d := binaryDiff(data, limit, at); d != "" {
			t.Fatalf("%s (LimitSites(%d) before Next %d): %s", what, limit, at, d)
		}
	}
	for _, l := range [][2]int{{0, 0}, {200, 0}, {199, 0}, {128, 0}, {1, 0}, {150, 4095}, {150, 4096}, {150, 9000}} {
		check("valid stream", big, l[0], l[1])
	}

	// Blocks of 16 records keep the cut and flip loops small; the
	// stream still spans sites past 127, whose ids take 2 bytes.
	const per = 16
	small := fs[:6*per]
	data := etbEncode(small, per, nil)
	payloads := etbPayloads(data)
	prefix := payloads[2][1] + 4 // three blocks, no end marker
	for cut := 0; cut <= prefix; cut++ {
		check(fmt.Sprintf("cut at byte %d", cut), data[:cut], 0, 0)
	}
	// A flipped payload bit fails the CRC; the framing bytes around the
	// payloads reach every other structural check.
	for bit := 0; bit < 8*prefix; bit++ {
		if inPayload(payloads, bit/8) && bit%8 != 0 {
			continue
		}
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), flipped, 0, 0)
	}

	// Payload corruptions under a recomputed CRC, each run without a
	// limit, then with LimitSites set to the original site of the record
	// the reference stops at, before the first Next and just before that
	// record: its error and its site's limit must win in the same order.
	corrupt := func(what string, b int, tweak func(p []byte) []byte) {
		data := etbEncode(small, per, func(i int, p []byte) []byte {
			if i == b {
				return tweak(p)
			}
			return p
		})
		check(what, data, 0, 0)
		ref := streamRefBinary(bytes.NewReader(data))
		for _, ok := ref.Next(); ok; _, ok = ref.Next() {
		}
		if stop := int(ref.Count()); stop < len(small) && small[stop].site > 0 {
			check(what, data, int(small[stop].site), 0)
			check(what, data, int(small[stop].site), stop)
		}
	}
	for b := 0; b < 3; b++ {
		for bit := 0; bit < 8*(payloads[b][1]-payloads[b][0]); bit++ {
			corrupt(fmt.Sprintf("block %d payload bit %d flipped", b, bit), b, func(p []byte) []byte {
				p[bit/8] ^= 1 << (bit % 8)
				return p
			})
		}
		for k := 1; k <= 12; k++ {
			corrupt(fmt.Sprintf("block %d payload %d bytes short", b, k), b, func(p []byte) []byte { return p[:len(p)-k] })
			corrupt(fmt.Sprintf("block %d payload %d bytes long", b, k), b, func(p []byte) []byte {
				return append(p, make([]byte, k)...)
			})
		}
	}

	// Field values no valid writer emits, each at the first, a middle
	// and the last record of a block, and at a stream's first record.
	fields := []struct {
		what string
		set  func(f *etbField)
	}{
		{"time past MaxFloat64", func(f *etbField) { f.delta = maxFloatBits }},
		{"time wraps", func(f *etbField) { f.delta = math.MaxUint64 }},
		{"9-byte time delta", func(f *etbField) { f.delta += 1 << 56 }},
		{"site 2^14", func(f *etbField) { f.site = 1 << 14 }},
		{"site past MaxInt32", func(f *etbField) { f.site = math.MaxInt32 + 1 }},
		{"negative service", func(f *etbField) { f.svc = math.Float64bits(-1) }},
		{"-0 service", func(f *etbField) { f.svc = 1 << 63 }},
		{"NaN service", func(f *etbField) { f.svc = math.Float64bits(math.NaN()) }},
		{"+Inf service", func(f *etbField) { f.svc = math.Float64bits(math.Inf(1)) }},
		{"-Inf service", func(f *etbField) { f.svc = math.Float64bits(math.Inf(-1)) }},
		{"MaxFloat64 service", func(f *etbField) { f.svc = maxFloatBits }},
	}
	for _, fc := range fields {
		for _, j := range []int{0, per - 1, per, per + per/2, 2*per - 1, 5*per + 3} {
			mutated := append([]etbField(nil), small...)
			fc.set(&mutated[j])
			data := etbEncode(mutated, per, nil)
			what := fmt.Sprintf("%s at record %d", fc.what, j)
			check(what, data, 0, 0)
			check(what, data, int(small[j].site)+1, 0)
			check(what, data, int(small[j].site), j)
			check(what, data, 1, j)
		}
	}
}

// refBinarySource is the record-at-a-time .etb decoder BinarySource
// replaced: it parses each record's fields straight from the payload as
// Next asks for it. It stays as the oracle TestBinaryMatchesReference
// and FuzzStreamBinary hold the block decoder to, record by record and
// error by error.
type refBinarySource struct {
	br       *bufio.Reader
	scratch  [8]byte // reused for header/CRC reads (a local would escape into io.ReadFull, one alloc per block)
	payload  []byte
	off      int
	left     int // records remaining in the current block
	prevBits uint64
	err      error
	done     bool
	ended    bool // saw the end-of-stream marker
	sites    int
	maxSites int
	n        uint64
}

func streamRefBinary(r io.Reader) *refBinarySource {
	s := &refBinarySource{br: bufio.NewReader(r)}
	magic := s.scratch[:len(BinaryMagic)]
	if _, err := io.ReadFull(s.br, magic); err != nil {
		s.fail(fmt.Errorf("trace: binary trace header: %w", err))
		return s
	}
	if string(magic) != BinaryMagic {
		s.fail(fmt.Errorf("trace: bad magic %q, want %q", magic, BinaryMagic))
		return s
	}
	v, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.fail(fmt.Errorf("trace: binary trace version: %w", err))
		return s
	}
	if v != binaryVersion {
		s.fail(fmt.Errorf("trace: binary trace version %d, this decoder reads %d", v, binaryVersion))
	}
	return s
}

// fail ends the stream with err.
func (s *refBinarySource) fail(err error) {
	s.err = err
	s.done = true
}

// nextBlock loads and CRC-checks the next block, or observes a clean
// end of stream. Returns false when no further records exist.
func (s *refBinarySource) nextBlock() bool {
	n, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.fail(fmt.Errorf("trace: binary trace truncated at block header: %w", err))
		return false
	}
	if n == 0 {
		// The end marker must be the last byte of the stream.
		if _, err := s.br.ReadByte(); err != io.EOF {
			s.fail(fmt.Errorf("trace: trailing bytes after the binary trace end marker"))
			return false
		}
		s.done, s.ended = true, true
		return false
	}
	plen, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.fail(fmt.Errorf("trace: binary trace truncated at block length: %w", err))
		return false
	}
	if plen > maxBinaryPayload {
		s.fail(fmt.Errorf("trace: binary block claims %d payload bytes (max %d); corrupt length",
			plen, maxBinaryPayload))
		return false
	}
	if n > plen/minBinaryRecord {
		s.fail(fmt.Errorf("trace: binary block claims %d records in %d bytes; corrupt count", n, plen))
		return false
	}
	if cap(s.payload) < int(plen) {
		// Round the first allocation up past the writer's largest block
		// so later blocks reuse it — one buffer for the whole stream.
		capHint := int(plen)
		if capHint < 1<<17 {
			capHint = 1 << 17
		}
		s.payload = make([]byte, plen, capHint)
	}
	s.payload = s.payload[:plen]
	if _, err := io.ReadFull(s.br, s.payload); err != nil {
		s.fail(fmt.Errorf("trace: binary block truncated: %w", err))
		return false
	}
	crc := s.scratch[:4]
	if _, err := io.ReadFull(s.br, crc); err != nil {
		s.fail(fmt.Errorf("trace: binary block truncated at checksum: %w", err))
		return false
	}
	if got, want := crc32.ChecksumIEEE(s.payload), binary.LittleEndian.Uint32(crc); got != want {
		s.fail(fmt.Errorf("trace: binary block checksum %08x, want %08x; block is corrupt", got, want))
		return false
	}
	s.off, s.left = 0, int(n)
	return true
}

// uvarint decodes one varint from the current payload.
func (s *refBinarySource) uvarint(what string) (uint64, bool) {
	v, n := binary.Uvarint(s.payload[s.off:])
	if n <= 0 {
		s.fail(fmt.Errorf("trace: binary record %d: %s field truncated or overlong", s.n, what))
		return 0, false
	}
	s.off += n
	return v, true
}

func (s *refBinarySource) Next() (cluster.RequestRecord, bool) {
	if s.done {
		return cluster.RequestRecord{}, false
	}
	for s.left == 0 {
		if !s.nextBlock() {
			return cluster.RequestRecord{}, false
		}
	}
	delta, ok := s.uvarint("time")
	if !ok {
		return cluster.RequestRecord{}, false
	}
	bits := s.prevBits + delta
	if bits < s.prevBits || bits > maxFloatBits {
		// Wrapped uint64 arithmetic or a pattern past MaxFloat64: no
		// valid writer emits either, so the block decodes to garbage.
		s.fail(fmt.Errorf("trace: binary record %d: time delta overflows to an invalid value", s.n))
		return cluster.RequestRecord{}, false
	}
	site, ok := s.uvarint("site")
	if !ok {
		return cluster.RequestRecord{}, false
	}
	if site > math.MaxInt32 {
		s.fail(fmt.Errorf("trace: binary record %d: site %d implausibly large", s.n, site))
		return cluster.RequestRecord{}, false
	}
	if s.maxSites > 0 && int(site) >= s.maxSites {
		s.fail(fmt.Errorf("trace: binary record %d: site %d outside the replay's %d sites",
			s.n, site, s.maxSites))
		return cluster.RequestRecord{}, false
	}
	if s.off+8 > len(s.payload) {
		s.fail(fmt.Errorf("trace: binary record %d: service field truncated", s.n))
		return cluster.RequestRecord{}, false
	}
	svc := math.Float64frombits(binary.LittleEndian.Uint64(s.payload[s.off:]))
	s.off += 8
	if svc < 0 || math.IsNaN(svc) || math.IsInf(svc, 0) {
		s.fail(fmt.Errorf("trace: binary record %d: bad service time %v", s.n, svc))
		return cluster.RequestRecord{}, false
	}
	s.left--
	if s.left == 0 && s.off != len(s.payload) {
		s.fail(fmt.Errorf("trace: binary block carries %d undeclared trailing bytes", len(s.payload)-s.off))
		return cluster.RequestRecord{}, false
	}
	s.prevBits = bits
	if int(site)+1 > s.sites {
		s.sites = int(site) + 1
	}
	s.n++
	return cluster.RequestRecord{
		Time:        math.Float64frombits(bits),
		Site:        int(site),
		ServiceTime: svc,
	}, true
}

func (s *refBinarySource) Err() error {
	if s.err == nil && s.done && !s.ended {
		return fmt.Errorf("trace: binary trace ended without its end marker; file is truncated")
	}
	return s.err
}

func (s *refBinarySource) LimitSites(n int) { s.maxSites = n }

func (s *refBinarySource) Sites() int { return s.sites }

func (s *refBinarySource) Count() uint64 { return s.n }
