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
	"math/bits"

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
		if rec.Time == 0 {
			rec.Time = 0 // −0 passes the sign check; its bits would sort last
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

// BinarySource streams cluster.RequestRecords from a .etb reader — the
// binary counterpart of RequestSource, holding one block's payload and
// that block's decoded records instead of the file. Truncation, CRC
// mismatches and impossible field values end the stream and are
// reported by Err; the source never panics and never silently drops
// records.
type BinarySource struct {
	br       *bufio.Reader
	scratch  [8]byte // reused for header/CRC reads (a local would escape into io.ReadFull, one alloc per block)
	payload  []byte
	recs     []cluster.RequestRecord // the current block's decoded records
	next     int                     // index in recs of the record Next returns next
	pend     error                   // the bad record that stopped the block's decode, reported once recs drain
	pendSite int                     // that record's site when it decoded before the error, else -1
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

// fail ends the stream with err, dropping any records not yet returned.
func (s *BinarySource) fail(err error) {
	s.err = err
	s.done = true
	s.recs, s.next = s.recs[:0], 0
}

// outside is the LimitSites error for record s.n at site.
func (s *BinarySource) outside(site int) error {
	return fmt.Errorf("trace: binary record %d: site %d outside the replay's %d sites", s.n, site, s.maxSites)
}

// nextBlock loads, CRC-checks and decodes the next block, or observes a
// clean end of stream. Returns false when no further records exist.
func (s *BinarySource) nextBlock() bool {
	if s.pend != nil {
		// A record checks LimitSites before its service field and its
		// block's trailing bytes, so a bad record's site can fail first.
		if s.maxSites > 0 && s.pendSite >= s.maxSites {
			s.pend = s.outside(s.pendSite)
		}
		s.fail(s.pend)
		return false
	}
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
	s.decodeBlock(int(n))
	return true
}

// decodeBlock decodes the payload's n records into s.recs in one loop.
// The first bad record stops it: the records before it stay for Next to
// return, and its error waits in s.pend. A time delta of up to 8 bytes
// decodes from one little-endian word, whose first clear high bit ends
// the varint; site ids below 2^14 take a 1- or 2-byte path; longer
// varints and a payload's last bytes go through binary.Uvarint.
func (s *BinarySource) decodeBlock(n int) {
	if cap(s.recs) < n {
		s.recs = make([]cluster.RequestRecord, n)
	}
	recs, p, prev := s.recs[:n], s.payload, s.prevBits
	off, i, site, why := 0, 0, -1, ""
	for ; i < n; i++ {
		site = -1
		v, k := uint64(0), 0
		if len(p)-off >= 8 {
			w := binary.LittleEndian.Uint64(p[off:])
			if stop := ^w & 0x8080808080808080; stop != 0 {
				end := bits.TrailingZeros64(stop) + 1
				v, k = pack7(w&(1<<end-1)), end/8
			}
		}
		if k == 0 {
			if v, k = binary.Uvarint(p[off:]); k <= 0 {
				why = "time field truncated or overlong"
				break
			}
		}
		off += k
		t := prev + v
		if t < prev || t > maxFloatBits {
			// Wrapped uint64 arithmetic or a pattern past MaxFloat64: no
			// valid writer emits either, so the block decodes to garbage.
			why = "time delta overflows to an invalid value"
			break
		}
		k = 0
		if off+1 < len(p) {
			// Sites mix 1- and 2-byte ids at random, so pick without a branch.
			b0, b1 := uint64(p[off]), uint64(p[off+1])
			if two := b0 >> 7; two&(b1>>7) == 0 {
				v, k = b0&0x7f|b1<<7&-two, 1+int(two)
			}
		}
		if k == 0 {
			if v, k = binary.Uvarint(p[off:]); k <= 0 {
				why = "site field truncated or overlong"
				break
			}
		}
		off += k
		if v > math.MaxInt32 {
			why = fmt.Sprintf("site %d implausibly large", v)
			break
		}
		site = int(v)
		if len(p)-off < 8 {
			why = "service field truncated"
			break
		}
		// One unsigned compare rejects negatives, Inf and NaN; -0 sits
		// above it too, but WriteBinary encodes -0, so it decodes.
		svc := binary.LittleEndian.Uint64(p[off:])
		if svc > maxFloatBits && svc != 1<<63 {
			why = fmt.Sprintf("bad service time %v", math.Float64frombits(svc))
			break
		}
		off += 8
		recs[i] = cluster.RequestRecord{Time: math.Float64frombits(t), Site: site, ServiceTime: math.Float64frombits(svc)}
		prev = t
	}
	if why != "" {
		s.pend = fmt.Errorf("trace: binary record %d: %s", s.n+uint64(i), why)
	} else if off != len(p) {
		s.pend = fmt.Errorf("trace: binary block carries %d undeclared trailing bytes", len(p)-off)
		i-- // the last record is withheld: its block is malformed
	}
	s.recs, s.next, s.prevBits, s.pendSite = recs[:i], 0, prev, site
}

// pack7 packs the 7-bit groups of a varint's little-endian bytes
// (continuation bits included, bytes past its end zeroed) into its value.
func pack7(w uint64) uint64 {
	w &= 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | (w&0x7f007f007f007f00)>>1
	w = w&0x00003fff00003fff | (w&0x3fff00003fff0000)>>2
	return w&0x000000000fffffff | (w&0x0fffffff00000000)>>4
}

// Next implements cluster.Source. After the first false it keeps
// returning false; check Err to learn whether the stream ended cleanly.
func (s *BinarySource) Next() (cluster.RequestRecord, bool) {
	for s.next == len(s.recs) {
		if s.done || !s.nextBlock() {
			return cluster.RequestRecord{}, false
		}
	}
	rec := s.recs[s.next]
	if s.maxSites > 0 && rec.Site >= s.maxSites {
		s.fail(s.outside(rec.Site))
		return cluster.RequestRecord{}, false
	}
	s.next++
	s.sites = max(s.sites, rec.Site+1)
	s.n++
	return rec, true
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
