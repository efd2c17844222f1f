package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/merge"
	"repro/internal/netem"
)

// waitGoroutines fails the test if more goroutines than before are
// still running once those that finished their work have had a moment
// to be reaped.
func waitGoroutines(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed run, %d before: the error path leaks", n, before)
	}
}

// TestPhase1BuildFailureClosesRing: a home tier that fails to build —
// an admission spec that never went through Validate, so no public
// entry point can reach it — stops its shard with an error instead of
// panicking inside the shard goroutine, and the shard still closes its
// ring, so a merger draining it does not stall.
func TestPhase1BuildFailureClosesRing(t *testing.T) {
	topo := Topology{Name: "bad", Tiers: []Tier{{
		Name: "edge", Sites: 2, ServersPerSite: 1, SlowdownFactor: 1, Path: netem.EdgePath,
		Admission: &admit.Spec{Policy: "leaky-bucket"},
	}}}
	plan, err := planShards(topo)
	if err != nil {
		t.Fatal(err)
	}
	tr := Generate(GenSpec{Sites: 2, Duration: 10, PerSiteRate: 5, Seed: 1})
	before := runtime.NumGoroutine()
	grp := merge.NewGroup(1, 4,
		func(a, b boundaryRec) bool { return boundaryBefore(&a, &b) },
		func(rec boundaryRec) float64 { return rec.at })
	st := &shardState{lo: 0, hi: 2}
	go runShardPhase1(topo, plan, st, tr.Source(), Options{}, &pipePublisher{grp: grp, ring: 0})
	for {
		if _, ok := grp.NextBatch(nil, 16); !ok {
			break
		}
	}
	if st.err == nil || !strings.Contains(st.err.Error(), "admission") {
		t.Fatalf("want the shard to report the admission build failure, got %v", st.err)
	}
	waitGoroutines(t, before)
}
