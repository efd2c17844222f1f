package cluster

import (
	"testing"

	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/stats"
)

// TestSourceIteration: the trace source yields every record in order and
// independent iterators do not interfere.
func TestSourceIteration(t *testing.T) {
	tr := Generate(GenSpec{Sites: 3, Duration: 50, PerSiteRate: 4, Seed: 41})
	a, b := tr.Source(), tr.Source()
	var n int
	last := -1.0
	for {
		rec, ok := a.Next()
		if !ok {
			break
		}
		if rec.Time < last {
			t.Fatal("source yielded records out of order")
		}
		last = rec.Time
		n++
	}
	if n != tr.Len() {
		t.Fatalf("source yielded %d records, trace has %d", n, tr.Len())
	}
	if rec, ok := b.Next(); !ok || rec != tr.Records[0] {
		t.Error("second iterator should start from the beginning")
	}
	if _, ok := a.Next(); ok {
		t.Error("exhausted source should keep returning ok=false")
	}
}

// maxPending replays a trace of the given duration through the edge and
// reports the largest event-calendar size observed at any generated
// arrival, plus the trace length.
func maxPendingEdge(t *testing.T, duration float64, mode stats.Mode) (maxP, traceLen int) {
	tr := Generate(GenSpec{Sites: 5, Duration: duration, PerSiteRate: 8, Seed: 42})
	edge := Topology{Name: "edge", Tiers: []Tier{
		{Name: "edge", Sites: 5, ServersPerSite: 1, Path: netem.Constant("zero", 0)},
	}}
	_, err := Run(tr.Source(), edge, Options{
		Warmup: 10, Seed: 43, Summary: mode,
		Probe: func(p int) {
			if p > maxP {
				maxP = p
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return maxP, tr.Len()
}

// TestCalendarBoundedDuringReplay: the acceptance criterion of the
// streaming core — Engine.Pending() stays bounded by a constant
// independent of trace length. A 10x longer trace must not grow the
// calendar at all.
func TestCalendarBoundedDuringReplay(t *testing.T) {
	shortMax, shortLen := maxPendingEdge(t, 100, stats.Exact)
	longMax, longLen := maxPendingEdge(t, 1000, stats.Exact)
	if longLen < 5*shortLen {
		t.Fatalf("trace scaling broken: %d vs %d records", shortLen, longLen)
	}
	// With 5 stations and zero RTT (the pump sits in the arrival lane,
	// not the calendar) the live set is a handful of events; 2*sites+8
	// is a generous constant bound.
	const bound = 2*5 + 8
	if shortMax == 0 || shortMax > bound {
		t.Errorf("short replay max Pending = %d, want in (0, %d]", shortMax, bound)
	}
	if longMax > bound {
		t.Errorf("long replay max Pending = %d exceeds constant bound %d (trace len %d)",
			longMax, bound, longLen)
	}
	if longMax > shortMax+2 {
		t.Errorf("calendar grew with trace length: %d (n=%d) -> %d (n=%d)",
			shortMax, shortLen, longMax, longLen)
	}
}

// TestCalendarBoundedCloud: same property through the cloud dispatch
// path with a nonzero RTT (in-flight arrivals bounded by rtt·λ).
func TestCalendarBoundedCloud(t *testing.T) {
	run := func(duration float64) (maxP, n int) {
		tr := Generate(GenSpec{Sites: 5, Duration: duration, PerSiteRate: 8, Seed: 44})
		sc, _ := netem.ScenarioByName("typical-25ms")
		cloud := Topology{Name: "cloud", Tiers: []Tier{CloudTier(5, sc.Cloud, lb.PolicyLeastConn)}}
		_, err := Run(tr.Source(), cloud, Options{
			Warmup: 10, Seed: 45, Summary: stats.Bounded,
			Probe: func(p int) {
				if p > maxP {
					maxP = p
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return maxP, tr.Len()
	}
	shortMax, _ := run(100)
	longMax, longLen := run(1000)
	// ~40 req/s aggregate at ~25 ms RTT keeps ~1 arrival in flight;
	// allow slack for RTT jitter.
	const bound = 40
	if longMax > bound {
		t.Errorf("cloud replay max Pending = %d exceeds %d (trace len %d)", longMax, bound, longLen)
	}
	if longMax > shortMax+5 {
		t.Errorf("cloud calendar grew with trace length: %d -> %d", shortMax, longMax)
	}
}
