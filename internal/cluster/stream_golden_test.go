package cluster_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cluster"
)

// manySitesHash is the FNV-1a hash of the first manySitesRecords records
// of manySitesSpec's Stream. It was computed before the generator's
// merge heap moved its (time, site) keys inline, and pins the merge
// order at a site count far beyond the 5–200-site goldens.
const (
	manySitesHash    = 0x09f26a8e34a7a56a
	manySitesRecords = 200_000
)

// manySitesSpec is a 10⁴-site renewal workload with at least
// manySitesRecords records (10⁴ sites × 2 req/s × 20 s ≈ 4·10⁵).
func manySitesSpec() cluster.GenSpec {
	return cluster.GenSpec{Sites: 10_000, Duration: 20, PerSiteRate: 2, Seed: 131}
}

// hashRecords hashes the first n records of src (time, site and service
// time, bit for bit) and stops src if it is a parallel source.
func hashRecords(t *testing.T, src cluster.Source, n int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [24]byte
	for i := 0; i < n; i++ {
		rec, ok := src.Next()
		if !ok {
			t.Fatalf("source ended after %d records, want %d", i, n)
		}
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(rec.Time))
		binary.LittleEndian.PutUint64(buf[8:], uint64(rec.Site))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(rec.ServiceTime))
		h.Write(buf[:])
	}
	if p, ok := src.(cluster.ParallelSource); ok {
		p.Stop()
	}
	return h.Sum64()
}

// TestStreamManySitesGolden: a 10⁴-site Stream yields the pinned record
// sequence, and ParallelStream, whose workers each generate a site range
// that starts past site 0, yields the same one.
func TestStreamManySitesGolden(t *testing.T) {
	spec := manySitesSpec()
	if got := hashRecords(t, cluster.Stream(spec), manySitesRecords); got != manySitesHash {
		t.Fatalf("Stream: first %d records hash to %#x, want %#x", manySitesRecords, got, uint64(manySitesHash))
	}
	if got := hashRecords(t, cluster.ParallelStream(spec, 3), manySitesRecords); got != manySitesHash {
		t.Fatalf("ParallelStream(3): first %d records hash to %#x, want %#x", manySitesRecords, got, uint64(manySitesHash))
	}
}
