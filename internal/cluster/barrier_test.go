package cluster

import "sort"

// harvestPublisher buffers a shard's whole boundary harvest; the
// barrier oracle sorts it after every shard has finished.
type harvestPublisher struct{ recs *[]boundaryRec }

func (h harvestPublisher) capture(rec boundaryRec) { *h.recs = append(*h.recs, rec) }
func (h harvestPublisher) advance(float64)         {}
func (h harvestPublisher) finish()                 {}

// runBarrier is the sharded replay's reference implementation: every
// shard runs phase 1 to completion (serially, one after another), the
// harvests are concatenated and sorted by boundaryBefore, IDs 1..n are
// assigned in that order, and the whole sequence feeds the phase-2
// engine over all shared tiers as a single closed batch. It bypasses
// merge.Group, watermarks, pipePublisher and the merger goroutine, so
// RunPipelined matching it proves those concurrent pieces reorder
// nothing.
func runBarrier(src ShardedSource, topo Topology, opts Options, shards int) (*TopologyResult, error) {
	r, err := newShardRun(src, topo, opts, shards)
	if err != nil {
		return nil, err
	}
	var all []boundaryRec
	for _, st := range r.states {
		runShardPhase1(r.topo, r.plan, st, src.Shard(st.lo, st.hi), r.opts, harvestPublisher{&all})
		if st.err != nil {
			return nil, st.err
		}
	}
	sort.Slice(all, func(i, j int) bool { return boundaryBefore(&all[i], &all[j]) })

	b, err := buildPhase2(r)
	if err != nil {
		return nil, err
	}
	batch := make([]p2rec, len(all))
	for i, rec := range all {
		batch[i] = p2rec{rec: rec, id: uint64(i + 1)}
	}
	feed := make(chan []p2rec, 1)
	if len(batch) > 0 {
		feed <- batch
	}
	close(feed)
	total := uint64(len(batch))
	runPhase2Pump(b, feed, nil, &total, nil)
	return finishSharded(r, b), nil
}
