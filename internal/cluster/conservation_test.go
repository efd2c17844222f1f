package cluster

import (
	"testing"

	"repro/internal/admit"
	"repro/internal/autoscale"
	"repro/internal/econ"
	"repro/internal/netem"
	"repro/internal/stats"
)

// conservationTopologies enumerates one topology per routing feature:
// plain home routing, jockeying, bounded queues that drop, a pooled
// central queue, every registry dispatcher, a two-hop spill chain, a
// pinned class, heterogeneous paths, and an autoscaled tier behind a
// spill edge.
func conservationTopologies() map[string]Topology {
	regional := netem.Jittered("regional-13ms", 0.013, 0.002)
	cloud := cloudPath()
	topos := map[string]Topology{
		"edge-plain": {Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
		}},
		"edge-jockey": {Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(),
				JockeyThreshold: 2, DetourRTT: 0.005},
		}},
		"edge-bounded": {Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(), QueueCap: 1},
		}},
		"cloud-central": {Tiers: []Tier{
			{Name: "cloud", Sites: 1, ServersPerSite: 5, Path: cloud,
				Dispatch: CentralQueueDispatch},
		}},
		"chain": chainTopology(),
		"hybrid-class": {
			Tiers: []Tier{
				{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(), QueueCap: 2},
				{Name: "cloud", Sites: 1, ServersPerSite: 5, Path: cloud,
					Dispatch: CentralQueueDispatch},
			},
			Spills:  []SpillEdge{{From: "edge", To: "cloud", Threshold: 2, DetourPath: &cloud}},
			Classes: []ClassRule{{Name: "pinned", Sites: []int{4}, Tier: "cloud"}},
		},
		"spill-into-autoscale": {
			Tiers: []Tier{
				{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
				{Name: "regional", Sites: 1, ServersPerSite: 1, Path: regional,
					Dispatch: CentralQueueDispatch,
					Scaler: &autoscale.Spec{Policy: autoscale.PolicyReactive, Interval: 2, Min: 1, Max: 5,
						UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 4}},
			},
			Spills: []SpillEdge{{From: "edge", To: "regional", Threshold: 2, DetourPath: &regional}},
		},
	}
	for _, pol := range []string{"round-robin", "least-connections", "power-of-two", "random"} {
		topos["cloud-"+pol] = Topology{Tiers: []Tier{
			{Name: "cloud", Sites: 5, ServersPerSite: 1, Path: cloud, Dispatch: pol},
		}}
	}
	return topos
}

// checkConservation asserts the request-conservation invariants of one
// run against its trace.
func checkConservation(t *testing.T, name string, tr *WorkloadTrace, res *TopologyResult, warmup float64) {
	t.Helper()
	if res.Offered != uint64(tr.Len()) {
		t.Errorf("%s: offered %d != trace length %d", name, res.Offered, tr.Len())
	}
	if res.Consumed != res.Offered {
		t.Errorf("%s: consumed %d != offered %d (requests leaked in flight)",
			name, res.Consumed, res.Offered)
	}
	// Rejected is warmup-included (counted at the rejection instant),
	// Completed/Dropped are warmup-excluded — so the sum matches consumed
	// exactly only without a warmup prefix.
	measured := res.Completed + res.Dropped + res.Rejected
	if warmup == 0 {
		if measured != res.Consumed {
			t.Errorf("%s: completed %d + dropped %d + rejected %d != consumed %d",
				name, res.Completed, res.Dropped, res.Rejected, res.Consumed)
		}
	} else if measured > res.Consumed {
		t.Errorf("%s: measured %d exceeds consumed %d", name, measured, res.Consumed)
	}
	var served, dropped, rejected, arrivals uint64
	for _, tier := range res.Tiers {
		served += tier.Served
		dropped += tier.Dropped
		rejected += tier.Rejected
		if got := tier.EndToEnd.N(); uint64(got) != tier.Served {
			t.Errorf("%s: tier %s digest holds %d, served %d", name, tier.Name, got, tier.Served)
		}
		for _, s := range tier.Sites {
			arrivals += s.Arrivals
		}
		if tier.Classes != nil {
			var cs, cd, cr uint64
			for _, c := range tier.Classes {
				cs += c.Served
				cd += c.Dropped
				cr += c.Rejected
				if got := c.EndToEnd.N(); uint64(got) != c.Served {
					t.Errorf("%s: tier %s class %s digest holds %d, served %d",
						name, tier.Name, c.Name, got, c.Served)
				}
			}
			if cs != tier.Served || cd != tier.Dropped || cr != tier.Rejected {
				t.Errorf("%s: tier %s class sums served/dropped/rejected %d/%d/%d != tier %d/%d/%d",
					name, tier.Name, cs, cd, cr, tier.Served, tier.Dropped, tier.Rejected)
			}
		}
	}
	if served != res.Completed {
		t.Errorf("%s: per-tier served %d != completed %d", name, served, res.Completed)
	}
	if dropped != res.Dropped {
		t.Errorf("%s: per-tier dropped %d != dropped %d", name, dropped, res.Dropped)
	}
	if rejected != res.Rejected {
		t.Errorf("%s: per-tier rejected %d != rejected %d", name, rejected, res.Rejected)
	}
	if got := res.EndToEnd.N(); uint64(got) != res.Completed {
		t.Errorf("%s: aggregate digest holds %d, completed %d", name, got, res.Completed)
	}
	// Every offered request either reaches exactly one station or is
	// turned away by admission before queueing, warmup included.
	if arrivals != res.Offered-res.Rejected {
		t.Errorf("%s: station arrivals %d != offered %d - rejected %d",
			name, arrivals, res.Offered, res.Rejected)
	}
}

// TestRequestConservation: for every topology shape and several seeds,
// offered == completed + dropped + nothing — no request is lost or
// double-counted anywhere in the graph — and the per-tier digests
// aggregate exactly to the end-to-end Result counts.
func TestRequestConservation(t *testing.T) {
	procs := siteProcs([]float64{26, 12, 8, 5, 3})
	for _, seed := range []int64{1, 7, 1299827} {
		tr := Generate(GenSpec{Sites: 5, Duration: 200, Seed: seed, Arrivals: procs})
		for name, topo := range conservationTopologies() {
			res, err := Run(tr.Source(), topo, Options{Seed: seed + 101})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkConservation(t, name, tr, res, 0)
		}
	}
}

// TestRequestConservationWarmupAndBounded: the invariants survive a
// warmup prefix and the bounded summary mode.
func TestRequestConservationWarmupAndBounded(t *testing.T) {
	procs := siteProcs([]float64{26, 12, 8, 5, 3})
	tr := Generate(GenSpec{Sites: 5, Duration: 200, Seed: 271, Arrivals: procs})
	for name, topo := range conservationTopologies() {
		res, err := Run(tr.Source(), topo, Options{Seed: 11, Warmup: 30, Summary: stats.Bounded})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkConservation(t, name, tr, res, 30)
	}
}

// admissionTopologies enumerates one topology per admission shape:
// token-bucket and queue-length on a home tier, priority with class
// ranks, admission racing a spill edge, and admission on a pooled
// shared tier behind a spill.
func admissionTopologies() map[string]Topology {
	cloud := cloudPath()
	return map[string]Topology{
		"admit-token-bucket": {Tiers: []Tier{
			{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(),
				Admission: &admit.Spec{Policy: admit.TokenBucket, Rate: 4, Burst: 2}},
		}},
		"admit-queue-length-spill": {
			Tiers: []Tier{
				{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(),
					Admission: &admit.Spec{Policy: admit.QueueLength, Threshold: 2}},
				{Name: "cloud", Sites: 1, ServersPerSite: 5, Path: cloud,
					Dispatch: CentralQueueDispatch},
			},
			Spills: []SpillEdge{{From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloud}},
		},
		"admit-priority-classes": {
			Tiers: []Tier{
				{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath(),
					Admission: &admit.Spec{Policy: admit.Priority, Threshold: 2, Cutoff: 1}},
				{Name: "cloud", Sites: 1, ServersPerSite: 5, Path: cloud,
					Dispatch: CentralQueueDispatch},
			},
			Classes: []ClassRule{{Name: "pinned", Sites: []int{4}, Tier: "cloud"}},
		},
		"admit-shared-tier": {
			Tiers: []Tier{
				{Name: "edge", Sites: 5, ServersPerSite: 1, Path: edgePath()},
				{Name: "cloud", Sites: 1, ServersPerSite: 3, Path: cloud,
					Dispatch:  CentralQueueDispatch,
					Admission: &admit.Spec{Policy: admit.QueueLength, Threshold: 4}},
			},
			Spills: []SpillEdge{{From: "edge", To: "cloud", Threshold: 2, DetourPath: &cloud}},
		},
	}
}

// checkCostConservation asserts TotalCost == Σ (Cost + RejectionCost).
func checkCostConservation(t *testing.T, name string, res *TopologyResult) {
	t.Helper()
	var sum float64
	for _, tier := range res.Tiers {
		sum += tier.Cost + tier.RejectionCost
	}
	if sum != res.TotalCost {
		t.Errorf("%s: per-tier cost %v != total %v", name, sum, res.TotalCost)
	}
}

// TestAdmissionConservation: the conservation invariants — now with
// offered == arrivals + rejected and completed + dropped + rejected ==
// consumed — hold for every admission shape, and a nonzero reject
// penalty keeps TotalCost conserved across tiers.
func TestAdmissionConservation(t *testing.T) {
	procs := siteProcs([]float64{26, 12, 8, 5, 3})
	pricing := econ.DefaultPricing()
	pricing.RejectPenalty = 0.002
	var rejected uint64
	for _, seed := range []int64{3, 17} {
		tr := Generate(GenSpec{Sites: 5, Duration: 200, Seed: seed, Arrivals: procs})
		for name, topo := range admissionTopologies() {
			res, err := Run(tr.Source(), topo, Options{Seed: seed + 7, Pricing: &pricing})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkConservation(t, name, tr, res, 0)
			checkCostConservation(t, name, res)
			rejected += res.Rejected
		}
	}
	if rejected == 0 {
		t.Fatal("no admission shape rejected anything; test is vacuous")
	}
}

// TestAdmissionConservationWarmupAndBounded: same invariants under a
// warmup prefix (Rejected stays warmup-included) and bounded summary.
func TestAdmissionConservationWarmupAndBounded(t *testing.T) {
	procs := siteProcs([]float64{26, 12, 8, 5, 3})
	tr := Generate(GenSpec{Sites: 5, Duration: 200, Seed: 97, Arrivals: procs})
	for name, topo := range admissionTopologies() {
		res, err := Run(tr.Source(), topo, Options{Seed: 13, Warmup: 30, Summary: stats.Bounded})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkConservation(t, name, tr, res, 30)
		checkCostConservation(t, name, res)
	}
}
