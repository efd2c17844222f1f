package trace

// The .etb ("edge trace binary") format: a zero-parse request-record
// container replacing per-row text decoding with varint deltas and one
// CRC per block.
//
//	header : magic "ETB1" ++ uvarint(version = 1)
//	block  : uvarint(n > 0) ++ uvarint(len(payload)) ++ payload ++ crc32(payload), LE
//	end    : uvarint(0)  — then EOF, anything after it is an error
//	record : uvarint(Float64bits(time) - prevBits) ++ uvarint(site)
//	         ++ 8-byte LE Float64bits(service)
//
// Times ride on the IEEE-754 ordering trick: for non-negative floats,
// bit patterns order exactly as the values do, so nondecreasing times
// become nondecreasing uint64s, their deltas are small, and varints
// compress them — losslessly, since the bits round-trip exactly. The
// delta chain runs across blocks (prevBits starts at 0, the bits of
// +0.0). A decoded bit pattern above MaxFloat64's is corrupt by
// construction (Inf/NaN/negative can never be written), so corruption
// is detectable even before the CRC closes the block.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/cluster"
)

// BinaryMagic is the .etb file signature. It cannot collide with either
// text format: request CSVs begin "time," and Azure count CSVs "bin,".
const BinaryMagic = "ETB1"

const (
	binaryVersion = 1
	// binaryBlockRecords is the writer's records-per-block: one CRC and
	// one length prefix amortized over this many records.
	binaryBlockRecords = 4096
	// maxBinaryPayload caps a block's declared payload length, so a
	// corrupt length prefix cannot make the decoder allocate
	// arbitrarily. The writer's blocks top out near 28 bytes/record ×
	// binaryBlockRecords ≈ 112 KiB, far under the cap.
	maxBinaryPayload = 1 << 20
	// minBinaryRecord is the smallest possible encoded record (1-byte
	// time delta + 1-byte site + 8-byte service), bounding the record
	// count a payload of a given length can honestly claim.
	minBinaryRecord = 10
)

// maxFloatBits is the largest bit pattern a valid time may decode to.
var maxFloatBits = math.Float64bits(math.MaxFloat64)

// WriteBinary writes every record of src in the .etb format, returning
// the record count. It validates what the decoder's contract promises —
// finite nonnegative nondecreasing times, nonnegative sites, finite
// nonnegative service times — and refuses to encode a violation rather
// than produce a file the decoder must reject. A fallible source that
// ends on a decode error surfaces that error here, so a truncated
// conversion is never reported as success.
func WriteBinary(w io.Writer, src cluster.Source) (int, error) {
	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	head := scratch[:binary.PutUvarint(scratch[:], binaryVersion)]
	if _, err := bw.WriteString(BinaryMagic); err != nil {
		return 0, err
	}
	if _, err := bw.Write(head); err != nil {
		return 0, err
	}

	payload := make([]byte, 0, binaryBlockRecords*12)
	inBlock, total := 0, 0
	prevBits := uint64(0)
	flush := func() error {
		if inBlock == 0 {
			return nil
		}
		n := binary.PutUvarint(scratch[:], uint64(inBlock))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		n = binary.PutUvarint(scratch[:], uint64(len(payload)))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		payload = payload[:0]
		inBlock = 0
		return nil
	}

	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if rec.Time < 0 || math.IsNaN(rec.Time) || math.IsInf(rec.Time, 0) {
			return total, fmt.Errorf("trace: binary record %d: bad time %v", total, rec.Time)
		}
		bits := math.Float64bits(rec.Time)
		if bits < prevBits {
			return total, fmt.Errorf("trace: binary record %d: time %v regresses (records must be nondecreasing)",
				total, rec.Time)
		}
		if rec.Site < 0 {
			return total, fmt.Errorf("trace: binary record %d: bad site %d", total, rec.Site)
		}
		if rec.ServiceTime < 0 || math.IsNaN(rec.ServiceTime) || math.IsInf(rec.ServiceTime, 0) {
			return total, fmt.Errorf("trace: binary record %d: bad service time %v", total, rec.ServiceTime)
		}
		payload = binary.AppendUvarint(payload, bits-prevBits)
		payload = binary.AppendUvarint(payload, uint64(rec.Site))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(rec.ServiceTime))
		prevBits = bits
		inBlock++
		total++
		if inBlock == binaryBlockRecords {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	if e, ok := src.(cluster.FallibleSource); ok {
		if err := e.Err(); err != nil {
			return total, fmt.Errorf("trace: source ended early: %w", err)
		}
	}
	if err := flush(); err != nil {
		return total, err
	}
	scratch[0] = 0 // uvarint(0): the end-of-stream marker
	if _, err := bw.Write(scratch[:1]); err != nil {
		return total, err
	}
	return total, bw.Flush()
}

// BinarySource streams cluster.RequestRecords from a .etb reader one
// record at a time — the binary counterpart of RequestSource, holding
// one block's payload instead of the file. Truncation, CRC mismatches
// and impossible field values end the stream and are reported by Err;
// the source never panics and never silently drops records.
type BinarySource struct {
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

// StreamBinary opens a streaming decoder over the .etb format. The
// header is consumed immediately; blocks are read and checked lazily by
// Next. Callers must check Err after the source drains to distinguish a
// clean end marker from truncation or corruption.
func StreamBinary(r io.Reader) *BinarySource {
	s := &BinarySource{br: bufio.NewReader(r)}
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
func (s *BinarySource) fail(err error) {
	s.err = err
	s.done = true
}

// nextBlock loads and CRC-checks the next block, or observes a clean
// end of stream. Returns false when no further records exist.
func (s *BinarySource) nextBlock() bool {
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
func (s *BinarySource) uvarint(what string) (uint64, bool) {
	v, n := binary.Uvarint(s.payload[s.off:])
	if n <= 0 {
		s.fail(fmt.Errorf("trace: binary record %d: %s field truncated or overlong", s.n, what))
		return 0, false
	}
	s.off += n
	return v, true
}

// Next implements cluster.Source. After the first false it keeps
// returning false; check Err to learn whether the stream ended cleanly.
func (s *BinarySource) Next() (cluster.RequestRecord, bool) {
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

// Err returns the decode error that ended the stream, or nil after a
// clean end marker. Unlike text formats, plain EOF is NOT clean here:
// a .etb stream ends with an explicit marker, so a file cut anywhere —
// even exactly between blocks — reports truncation.
func (s *BinarySource) Err() error {
	if s.err == nil && s.done && !s.ended {
		return fmt.Errorf("trace: binary trace ended without its end marker; file is truncated")
	}
	return s.err
}

// LimitSites makes the decoder error on records whose site id is >= n —
// the same replay-mismatch guard RequestSource.LimitSites provides.
func (s *BinarySource) LimitSites(n int) { s.maxSites = n }

// Sites returns the number of sites observed so far (max site id + 1).
func (s *BinarySource) Sites() int { return s.sites }

// Count returns the number of records yielded so far.
func (s *BinarySource) Count() uint64 { return s.n }
