package cluster_test

// Admission control must not perturb determinism: admission-off runs
// stay bit-identical to runs with a no-op policy, and admission-on
// runs are byte-identical across the serial, sharded (every shard
// count) and broadcast backends, and to the sharded barrier oracle. Every policy is a
// deterministic function of the arrival sequence it observes, so these
// suites are the proof the -admit flag rests on.

import (
	"testing"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/econ"
	"repro/internal/netem"
	"repro/internal/stats"
)

// admissionTopology is the equivalence deployment: a rate-limited
// home-routed edge spilling to a queue-gated pooled cloud, with one
// site's traffic pinned past the edge entirely.
func admissionTopology(sites int) cluster.Topology {
	cloudPath := netem.CloudTypical
	return cluster.Topology{
		Name: "admit-equiv",
		Tiers: []cluster.Tier{
			{Name: "edge", Sites: sites, ServersPerSite: 1, Path: netem.EdgePath,
				Admission: &admit.Spec{Policy: admit.TokenBucket, Rate: 6, Burst: 3}},
			{Name: "cloud", Sites: 1, ServersPerSite: sites, Path: cloudPath,
				Dispatch:  cluster.CentralQueueDispatch,
				Admission: &admit.Spec{Policy: admit.QueueLength, Threshold: 4 * sites}},
		},
		Spills: []cluster.SpillEdge{{
			From: "edge", To: "cloud", Threshold: 3, DetourPath: &cloudPath,
		}},
		Classes: []cluster.ClassRule{{Name: "pinned", Sites: []int{0}, Tier: "cloud"}},
	}
}

func admissionSpec(sites int, seed int64) cluster.GenSpec {
	return cluster.GenSpec{Sites: sites, Duration: 120, PerSiteRate: 9, Seed: seed}
}

// TestAdmissionShardCountInvariance: admission-enabled sharded runs
// are bit-identical for every shard count and to the barrier oracle,
// across warmup and summary modes. Token-bucket state is
// per-site and shared-tier policies observe the canonical merged
// order, so no partition can change a single admission decision.
func TestAdmissionShardCountInvariance(t *testing.T) {
	const sites = 5
	topo := admissionTopology(sites)
	if err := cluster.Shardable(topo); err != nil {
		t.Fatalf("admission topology must be shardable: %v", err)
	}
	pricing := econ.DefaultPricing()
	pricing.RejectPenalty = 0.001
	for _, seed := range []int64{1, 42} {
		for _, tc := range []struct {
			label  string
			warmup float64
			mode   stats.Mode
		}{
			{"exact", 0, stats.Exact},
			{"exact-warmup", 30, stats.Exact},
			{"bounded", 0, stats.Bounded},
		} {
			run := func(backend func(cluster.ShardedSource, cluster.Topology, cluster.Options, int) (*cluster.TopologyResult, error), shards int) *cluster.TopologyResult {
				res, err := backend(cluster.GenShards(admissionSpec(sites, seed)), topo,
					cluster.Options{Warmup: tc.warmup, Seed: seed, Summary: tc.mode,
						Pricing: &pricing}, shards)
				if err != nil {
					t.Fatalf("%s/shards=%d: %v", tc.label, shards, err)
				}
				return res
			}
			want := run(cluster.RunBarrier, 1)
			if want.Rejected == 0 {
				t.Fatalf("%s: no rejections; test is vacuous", tc.label)
			}
			for _, shards := range []int{1, 2, 3, 5} {
				compareTopologyResults(t, tc.label+"/shards", want, run(cluster.RunPipelined, shards))
			}
		}
	}
}

// TestAdmissionNoOpBitIdentical: policies that never reject leave the
// run bit-identical to no admission at all — the policies draw no
// randomness and touch no queue state, so the event sequence cannot
// diverge. This is the admission-off safety proof for the serial path.
func TestAdmissionNoOpBitIdentical(t *testing.T) {
	const sites = 5
	spec := admissionSpec(sites, 7)

	off := admissionTopology(sites)
	off.Tiers[0].Admission = nil
	off.Tiers[1].Admission = nil

	noop := admissionTopology(sites)
	noop.Tiers[0].Admission = &admit.Spec{Policy: admit.TokenBucket, Rate: 1e9}
	noop.Tiers[1].Admission = &admit.Spec{Policy: admit.QueueLength, Threshold: 1 << 30}

	run := func(topo cluster.Topology) *cluster.TopologyResult {
		res, err := cluster.Run(cluster.Stream(spec), topo, cluster.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(off), run(noop)
	if want.Offered == 0 {
		t.Fatal("no requests offered; test is vacuous")
	}
	if got.Rejected != 0 {
		t.Fatalf("no-op policies rejected %d requests", got.Rejected)
	}
	// The admission-off run has no Classes-independent divergence to
	// hide: zero out the per-tier class tables' Rejected expectations by
	// comparing everything field by field.
	compareTopologyResults(t, "noop-admission", want, got)
}

// TestAdmissionBroadcastMatchesPerRow: RunBroadcast with
// admission-enabled variants matches per-row Run calls byte for byte —
// the fan-out backend inherits admission through Run untouched.
func TestAdmissionBroadcastMatchesPerRow(t *testing.T) {
	const sites = 5
	spec := admissionSpec(sites, 11)
	pricing := econ.DefaultPricing()
	pricing.RejectPenalty = 0.001

	variants := []cluster.Variant{
		{Label: "admit", Topology: admissionTopology(sites),
			Opts: cluster.Options{Seed: 3, Pricing: &pricing}},
		{Label: "plain", Topology: spillTopology(sites), Opts: cluster.Options{Seed: 3}},
	}
	got, err := cluster.RunBroadcast(cluster.Stream(spec), variants, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range variants {
		want, err := cluster.Run(cluster.Stream(spec), v.Topology, v.Opts)
		if err != nil {
			t.Fatal(err)
		}
		compareTopologyResults(t, "broadcast/"+v.Label, want, got[i])
	}
	if got[0].Rejected == 0 {
		t.Fatal("admission variant rejected nothing; test is vacuous")
	}
}

// TestAdmissionSerialMatchesShardedInvariants: the sharded path's
// admission counters satisfy the same conservation the serial path
// does (the two paths define different canonical stream disciplines,
// so their digests differ — but conservation must hold in both).
func TestAdmissionSerialMatchesShardedInvariants(t *testing.T) {
	const sites = 5
	topo := admissionTopology(sites)
	res, err := cluster.RunPipelined(cluster.GenShards(admissionSpec(sites, 19)), topo,
		cluster.Options{Seed: 19}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("no rejections; test is vacuous")
	}
	if res.Completed+res.Dropped+res.Rejected != res.Consumed {
		t.Errorf("completed %d + dropped %d + rejected %d != consumed %d",
			res.Completed, res.Dropped, res.Rejected, res.Consumed)
	}
	var arrivals, rejected uint64
	for _, tier := range res.Tiers {
		rejected += tier.Rejected
		for _, s := range tier.Sites {
			arrivals += s.Arrivals
		}
	}
	if rejected != res.Rejected {
		t.Errorf("per-tier rejected %d != aggregate %d", rejected, res.Rejected)
	}
	if arrivals != res.Offered-res.Rejected {
		t.Errorf("station arrivals %d != offered %d - rejected %d",
			arrivals, res.Offered, res.Rejected)
	}
}
