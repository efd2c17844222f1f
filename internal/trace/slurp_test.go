package trace

// The slurping decoders: each drains one streaming decoder into a
// WorkloadTrace. The equivalence and fuzz suites replay them against
// the streams they wrap.

import (
	"io"

	"repro/internal/cluster"
)

// ReadRequestsCSV materializes a request CSV into a WorkloadTrace — the
// slurping counterpart of StreamRequestsCSV, decoded through the same
// streaming path so the two agree record for record (the equivalence
// suite asserts it). Prefer the streaming decoder for replays too large
// to hold.
func ReadRequestsCSV(r io.Reader) (*cluster.WorkloadTrace, error) {
	src := StreamRequestsCSV(r)
	var recs []cluster.RequestRecord
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	// Build the trace directly rather than through FromRecords: the
	// decoder already enforces nondecreasing times, and the file's row
	// order — not FromRecords' (Time, Site) order, which would move
	// equal-time rows of different sites — is what the streaming path
	// yields, so slurped and streamed replays stay bit-identical.
	return &cluster.WorkloadTrace{Records: recs, Sites: src.Sites()}, nil
}

// ReadAzureCSV materializes a per-bin count file into a WorkloadTrace
// through the same streaming decoder, so slurped and streamed replays
// are bit-identical.
func ReadAzureCSV(r io.Reader, opts AzureStreamOptions) (*cluster.WorkloadTrace, error) {
	src := StreamAzureCSV(r, opts)
	var recs []cluster.RequestRecord
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return &cluster.WorkloadTrace{Records: recs, Sites: src.Sites()}, nil
}

// ReadBinary materializes a .etb stream into a WorkloadTrace — the
// slurping counterpart of StreamBinary, decoded through the same
// streaming path so the two agree record for record.
func ReadBinary(r io.Reader) (*cluster.WorkloadTrace, error) {
	src := StreamBinary(r)
	var recs []cluster.RequestRecord
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return &cluster.WorkloadTrace{Records: recs, Sites: src.Sites()}, nil
}
