package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// checker counts correctness checks; every failure counts toward
// check_fail_ratio and makes the command exit non-zero.
type checker struct {
	attempted, failed int
	failures          []string
}

// maxFailures bounds the failure messages kept for printing.
const maxFailures = 20

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// replay is one topology replay of a pass and what its source yielded.
type replay struct {
	label  string
	res    *cluster.TopologyResult
	pulled uint64 // records the engine pulled from its source
	warm   uint64 // of those, records generated before the warmup horizon
}

// passOut is one pass of a workload.
type passOut struct {
	replays   []replay
	requests  uint64 // simulated requests replayed; each replay counts
	generated uint64 // records the pass generated (0 for a recorded trace)
	scanned   uint64 // records decoded, kept or not (sharded decode)
	backlog   int    // peak resident boundary records (pipelined, traced)
}

func (p *passOut) add(label string, res *cluster.TopologyResult, pulled, warm uint64) {
	p.replays = append(p.replays, replay{label: label, res: res, pulled: pulled, warm: warm})
	p.requests += res.Offered
}

// checkPass checks request conservation on every replay of the pass:
//
//   - Offered equals the records the source yielded, and Consumed;
//   - offered = served + dropped + rejected + warmup-discarded, where
//     only requests generated before the warmup horizon can be
//     discarded;
//   - the aggregate counters are the sums of the tier counters, and
//     each tier's latency digest holds one sample per served request.
func checkPass(c *checker, p *passOut) {
	for _, r := range p.replays {
		checkConservation(c, r)
	}
}

func checkConservation(c *checker, r replay) {
	res := r.res
	c.check(res.Offered == r.pulled, "%s: offered %d, but the source yielded %d records", r.label, res.Offered, r.pulled)
	c.check(res.Offered == res.Consumed, "%s: offered %d != consumed %d", r.label, res.Offered, res.Consumed)
	var served, dropped, rejected uint64
	for i := range res.Tiers {
		t := &res.Tiers[i]
		served += t.Served
		dropped += t.Dropped
		rejected += t.Rejected
		c.check(uint64(t.EndToEnd.N()) == t.Served, "%s: tier %s served %d but its latency digest holds %d",
			r.label, t.Name, t.Served, t.EndToEnd.N())
	}
	c.check(served == res.Completed && dropped == res.Dropped && rejected == res.Rejected,
		"%s: tier sums served %d dropped %d rejected %d, aggregate %d %d %d",
		r.label, served, dropped, rejected, res.Completed, res.Dropped, res.Rejected)
	accounted := served + dropped + rejected
	c.check(accounted <= res.Offered && res.Offered-accounted <= r.warm,
		"%s: offered %d = served %d + dropped %d + rejected %d + warmup-discarded, but only %d records predate the warmup",
		r.label, res.Offered, served, dropped, rejected, r.warm)
}

// fingerprints hashes every replay's result, one value per replay.
func (p *passOut) fingerprints() []uint64 {
	out := make([]uint64, len(p.replays))
	for i, r := range p.replays {
		out[i] = fingerprint(r.res)
	}
	return out
}

func equalPrints(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fingerprint hashes the bits of a result's counters, latency digests,
// utilizations and costs: two replays that are bit-identical hash
// alike, and any difference in what a user reads almost surely does
// not.
func fingerprint(r *cluster.TopologyResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putf := func(f float64) { put(math.Float64bits(f)) }
	digest := func(d *stats.Digest) {
		put(uint64(d.N()))
		putf(d.Mean())
		putf(d.Min())
		putf(d.Max())
	}
	put(r.Offered)
	put(r.Consumed)
	put(r.Completed)
	put(r.Dropped)
	put(r.Rejected)
	digest(&r.EndToEnd)
	digest(&r.Wait)
	putf(r.EndToEnd.Quantile(0.5))
	putf(r.EndToEnd.Quantile(0.99))
	putf(r.Duration)
	putf(r.Utilization)
	putf(r.TotalCost)
	for i := range r.Tiers {
		t := &r.Tiers[i]
		put(t.Served)
		put(t.Spilled)
		put(t.Dropped)
		put(t.Rejected)
		put(uint64(t.ScaleUps))
		put(uint64(t.ScaleDowns))
		put(uint64(t.PeakServers))
		digest(&t.EndToEnd)
		digest(&t.Wait)
		putf(t.Utilization)
		putf(t.ServerSeconds)
		for j := range t.Sites {
			digest(&t.Sites[j].EndToEnd)
		}
	}
	return h.Sum64()
}

// checkSameCounts checks that two replays of one trace agree on every
// request count: offered, consumed, and each tier's served, spilled,
// dropped and rejected requests and latency sample count.
func checkSameCounts(c *checker, label string, want, got *cluster.TopologyResult) {
	c.check(want.Offered == got.Offered && want.Consumed == got.Consumed,
		"%s: offered/consumed %d/%d, oracle %d/%d", label, got.Offered, got.Consumed, want.Offered, want.Consumed)
	c.check(len(want.Tiers) == len(got.Tiers), "%s: %d tiers, oracle %d", label, len(got.Tiers), len(want.Tiers))
	for i := range want.Tiers {
		if i >= len(got.Tiers) {
			break
		}
		w, g := &want.Tiers[i], &got.Tiers[i]
		c.check(w.Served == g.Served && w.Spilled == g.Spilled && w.Dropped == g.Dropped &&
			w.Rejected == g.Rejected && w.EndToEnd.N() == g.EndToEnd.N(),
			"%s: tier %s served/spilled/dropped/rejected %d/%d/%d/%d, oracle %d/%d/%d/%d",
			label, w.Name, g.Served, g.Spilled, g.Dropped, g.Rejected, w.Served, w.Spilled, w.Dropped, w.Rejected)
	}
}

// relClose reports whether a and b agree within a relative tolerance.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
