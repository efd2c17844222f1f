package trace

// Fuzz harnesses for the streaming decoders: arbitrary bytes must
// never panic, never yield a time-regressed or invalid record, and
// must either decode cleanly or report an error through Err — the
// "error, never panic or silently drop" contract the replay runners
// rely on (a regressed record reaching the feeder would panic the
// simulation). Without -fuzz these run the seed corpus as unit tests.

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cluster"
)

// fuzzDrainLimit bounds how many records a harness pulls, so inputs
// describing astronomically many arrivals (a huge per-bin count) stay
// cheap: laziness means undrained records cost nothing.
const fuzzDrainLimit = 1 << 14

func FuzzStreamRequestsCSV(f *testing.F) {
	f.Add([]byte("time,site,service\n0.5,0,0.07\n1.25,2,0.08\n1.25,2,0.01\n"))
	f.Add([]byte("time,site,service\n"))
	f.Add([]byte("time,site,service\n2,0,0.1\n1,0,0.1\n"))   // regression
	f.Add([]byte("time,site,service\n1,0\n"))                // short row
	f.Add([]byte("time,site,service\n1,0,\"0.1\n"))          // truncated quote
	f.Add([]byte("time,site,service\nNaN,-1,+Inf\n"))        // non-finite
	f.Add([]byte("time,site,service\n-1,0,0.1\n"))           // negative time
	f.Add([]byte("wrong,header,here\n1,0,0.1\n"))            // bad header
	f.Add([]byte("time,site,service\n1e308,0,1e308\n2,0,1")) // extremes then regression
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := StreamRequestsCSV(bytes.NewReader(data))
		last := math.Inf(-1)
		n := 0
		for n < fuzzDrainLimit {
			rec, ok := src.Next()
			if !ok {
				break
			}
			if rec.Time < last {
				t.Fatalf("yielded time regression: %v after %v", rec.Time, last)
			}
			if rec.Time < 0 || math.IsNaN(rec.Time) || math.IsInf(rec.Time, 0) ||
				rec.Site < 0 || rec.ServiceTime < 0 ||
				math.IsNaN(rec.ServiceTime) || math.IsInf(rec.ServiceTime, 0) {
				t.Fatalf("yielded invalid record %+v", rec)
			}
			last = rec.Time
			n++
		}
		if n < fuzzDrainLimit {
			// Fully drained: an ended source must stay ended, whether the
			// end was clean (Err nil) or a decode failure (Err set).
			if _, ok := src.Next(); ok {
				t.Fatal("ended source yielded another record")
			}
			// A clean decode must agree with the slurping counterpart.
			if src.Err() == nil {
				tr, err := ReadRequestsCSV(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("streamed decode clean but slurped decode failed: %v", err)
				}
				if tr.Len() != n {
					t.Fatalf("slurped %d records, streamed %d", tr.Len(), n)
				}
			}
		}
	})
}

func FuzzStreamAzureCSV(f *testing.F) {
	f.Add([]byte("bin,site0,site1\n0,3,1\n1,0,2\n"))
	f.Add([]byte("bin,site0\n1,1\n0,2\n"))      // bin regression
	f.Add([]byte("bin,site0\n0,1e30\n"))        // absurd count
	f.Add([]byte("bin,site0,site1\n0,1\n"))     // short row
	f.Add([]byte("bin,site0\n0,\"1\n"))         // truncated quote
	f.Add([]byte("bin,site0\n-1,-5\n"))         // negative everything
	f.Add([]byte("bin,site0\n0,NaN\n"))         // non-finite count
	f.Add([]byte("bin,site0\n0,0\n5,0\n9,4\n")) // gaps and empty bins
	f.Add([]byte("nope\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := StreamAzureCSV(bytes.NewReader(data), AzureStreamOptions{BinWidth: 60, Seed: 3})
		last := math.Inf(-1)
		n := 0
		for n < fuzzDrainLimit {
			rec, ok := src.Next()
			if !ok {
				break
			}
			if rec.Time < last {
				t.Fatalf("yielded time regression: %v after %v", rec.Time, last)
			}
			if rec.Time < 0 || math.IsNaN(rec.Time) || math.IsInf(rec.Time, 0) ||
				rec.Site < 0 || rec.Site >= src.Sites() || rec.ServiceTime < 0 {
				t.Fatalf("yielded invalid record %+v", rec)
			}
			last = rec.Time
			n++
		}
		if n < fuzzDrainLimit {
			if _, ok := src.Next(); ok {
				t.Fatal("ended source yielded another record")
			}
			if src.Err() == nil {
				tr, err := ReadAzureCSV(bytes.NewReader(data), AzureStreamOptions{BinWidth: 60, Seed: 3})
				if err != nil {
					t.Fatalf("streamed decode clean but slurped decode failed: %v", err)
				}
				if tr.Len() != n {
					t.Fatalf("slurped %d records, streamed %d", tr.Len(), n)
				}
			}
		}
	})
}

// fuzzBinarySeed encodes a small generated workload so the corpus
// contains at least one fully valid .etb stream for the mutator to
// start from.
func fuzzBinarySeed() []byte {
	var buf bytes.Buffer
	_, err := WriteBinary(&buf, cluster.Stream(cluster.GenSpec{
		Sites: 3, Duration: 40, PerSiteRate: 5, Seed: 77,
	}))
	if err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzStreamBinary(f *testing.F) {
	valid := fuzzBinarySeed()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])           // truncated mid-stream
	f.Add(valid[:len(BinaryMagic)+1])     // header only
	f.Add(append([]byte{}, valid[4:]...)) // magic stripped
	f.Add([]byte("ETB1\x01\x00"))         // empty but well-formed
	f.Add([]byte("ETB1\x02\x00"))         // future version
	f.Add([]byte("ETB1\x01\x05\x00"))     // block claiming records, no payload
	f.Add([]byte("time,site,service\n1,0,0.1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The block decoder must match the record-at-a-time reference on
		// every input, with and without a site limit set mid-stream.
		for _, l := range [][2]int{{0, 0}, {2, 1}} {
			if d := binaryDiff(data, l[0], l[1]); d != "" {
				t.Fatalf("LimitSites(%d) before Next %d: %s", l[0], l[1], d)
			}
		}
		src := StreamBinary(bytes.NewReader(data))
		last := math.Inf(-1)
		n := 0
		for n < fuzzDrainLimit {
			rec, ok := src.Next()
			if !ok {
				break
			}
			if rec.Time < last {
				t.Fatalf("yielded time regression: %v after %v", rec.Time, last)
			}
			if rec.Time < 0 || math.IsNaN(rec.Time) || math.IsInf(rec.Time, 0) ||
				rec.Site < 0 || rec.ServiceTime < 0 ||
				math.IsNaN(rec.ServiceTime) || math.IsInf(rec.ServiceTime, 0) {
				t.Fatalf("yielded invalid record %+v", rec)
			}
			last = rec.Time
			n++
		}
		if n < fuzzDrainLimit {
			if _, ok := src.Next(); ok {
				t.Fatal("ended source yielded another record")
			}
			if src.Err() == nil {
				// A clean decode must agree with the slurping counterpart
				// AND re-encode to a stream that round-trips to the same
				// records (write→read is the identity on valid data).
				tr, err := ReadBinary(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("streamed decode clean but slurped decode failed: %v", err)
				}
				if tr.Len() != n {
					t.Fatalf("slurped %d records, streamed %d", tr.Len(), n)
				}
				var buf bytes.Buffer
				if _, err := WriteBinary(&buf, tr.Source()); err != nil {
					t.Fatalf("re-encode of a clean decode failed: %v", err)
				}
				again, err := ReadBinary(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("re-encoded stream failed to decode: %v", err)
				}
				if again.Len() != tr.Len() {
					t.Fatalf("re-encode round trip lost records: %d vs %d", again.Len(), tr.Len())
				}
				for i := range tr.Records {
					if again.Records[i] != tr.Records[i] {
						t.Fatalf("re-encode round trip altered record %d: %+v vs %+v",
							i, again.Records[i], tr.Records[i])
					}
				}
			}
		}
	})
}
