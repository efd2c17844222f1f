package cluster

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/merge"
	"repro/internal/sim"
)

// Sharded replay runs its two phases (shard.go) concurrently instead of
// barriering between them:
//
//		shard 0  ──captures──▶ ring 0 ─┐
//		shard 1  ──captures──▶ ring 1 ─┼─▶ merger ──▶ phase-2 engine
//		shard k  ──captures──▶ ring k ─┘   (watermark-gated k-way merge)
//
//	  - Each phase-1 shard publishes its boundary records through a
//	    bounded ring (merge.Group) together with a monotone watermark:
//	    its event-clock frontier, below which it can emit nothing new. A
//	    capture at shard time T always carries at >= T (pinned classes
//	    arrive at T, spills at T plus half a non-negative detour), so
//	    buffered captures with at < clock are final and are released in
//	    canonical order from a small pending heap.
//	  - A dedicated merger goroutine pops every record that is below all
//	    open rings' watermarks — provably next in the global
//	    (time, site, seq) order — and does phase 2's per-request pre-work
//	    off the engine: decoding the record and assigning the global
//	    request ID in canonical order.
//	  - The one phase-2 engine, which owns every shared tier, replays the
//	    records through a pump event that blocks inside its callback
//	    until the merger supplies the next record, so the engine can
//	    never run ahead of the merge: it sees exactly the event sequence
//	    it would replaying the fully sorted boundary harvest, which is
//	    why the results are byte-identical for every shard count by
//	    construction.
//
// Memory: ring backpressure (Push blocks when full) bounds resident
// boundary records by ring capacity, not boundary count; the pending
// heaps hold only captures within one detour of the shard clock. Wall
// clock: phase 2 overlaps phase 1, so the critical path drops from
// max(phase1) + phase2 toward max(max(phase1), phase2).
const (
	// boundaryRing bounds each shard's boundary ring in records:
	// deep enough to ride out merge stalls, small enough that k rings
	// stay cache-resident. Smaller rings mean more backpressure stalls;
	// results are identical either way.
	boundaryRing = 4096
	// pipeFlushStride caps how many source records a shard processes
	// between watermark publications, so an idle-boundary shard still
	// unblocks the merge.
	pipeFlushStride = 64
	// pipeBatch is the merger's pop/forward granularity: large enough to
	// amortize ring locks and channel sends, small enough to keep the
	// phase-2 engine fed.
	pipeBatch = 256
)

// backlogGauge tracks resident boundary records (captured but not yet
// admitted to the phase-2 engine) for Options.BacklogProbe.
type backlogGauge struct {
	resident atomic.Int64
	peak     atomic.Int64
}

func (g *backlogGauge) add(d int64) {
	v := g.resident.Add(d)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// pipePublisher streams one shard's boundary captures into its
// watermark ring. Captures buffer in a min-heap keyed by the canonical
// order until the shard clock passes their arrival instant, then flush
// in sorted order followed by a watermark at the clock; Push blocks
// when the ring is full, which is the backpressure that bounds memory.
// The release-before-watermark coupling is load-bearing: a watermark at
// w may only be set once every buffered record below w has been pushed.
type pipePublisher struct {
	grp     *merge.Group[boundaryRec]
	ring    int
	gauge   *backlogGauge // nil unless Options.BacklogProbe is set
	pending []boundaryRec // min-heap by boundaryBefore
	batch   []boundaryRec // reused release buffer
	stride  int           // records since the last flush
}

func (p *pipePublisher) capture(rec boundaryRec) {
	if p.gauge != nil {
		p.gauge.add(1)
	}
	p.pending = append(p.pending, rec)
	i := len(p.pending) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !boundaryBefore(&p.pending[i], &p.pending[parent]) {
			break
		}
		p.pending[i], p.pending[parent] = p.pending[parent], p.pending[i]
		i = parent
	}
}

func (p *pipePublisher) popPending() boundaryRec {
	top := p.pending[0]
	last := len(p.pending) - 1
	p.pending[0] = p.pending[last]
	p.pending = p.pending[:last]
	i, n := 0, len(p.pending)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && boundaryBefore(&p.pending[l], &p.pending[min]) {
			min = l
		}
		if r < n && boundaryBefore(&p.pending[r], &p.pending[min]) {
			min = r
		}
		if min == i {
			return top
		}
		p.pending[i], p.pending[min] = p.pending[min], p.pending[i]
		i = min
	}
}

// advance flushes when a buffered capture has become final or the
// stride expires, keeping the ring lock off the per-record fast path.
func (p *pipePublisher) advance(now float64) {
	p.stride++
	if p.stride < pipeFlushStride && (len(p.pending) == 0 || p.pending[0].at >= now) {
		return
	}
	p.stride = 0
	p.batch = p.batch[:0]
	for len(p.pending) > 0 && p.pending[0].at < now {
		p.batch = append(p.batch, p.popPending())
	}
	p.grp.Push(p.ring, p.batch)
	p.grp.SetWatermark(p.ring, now)
}

// finish releases the tail — captures at or past the final clock — and
// closes the ring. Runs on the shard's error path too.
func (p *pipePublisher) finish() {
	p.batch = p.batch[:0]
	for len(p.pending) > 0 {
		p.batch = append(p.batch, p.popPending())
	}
	p.grp.Push(p.ring, p.batch)
	p.grp.Close(p.ring)
}

// p2rec is one merged boundary record after the merger's pre-work: the
// decoded record plus its globally-assigned request ID.
type p2rec struct {
	rec boundaryRec
	id  uint64
}

// runPhase2Pump replays the merged boundary stream on the phase-2
// engine. The pump lives in the engine's arrival lane (sim.ArmLane),
// outside the calendar, and runs at each record's arrival time ahead of
// every same-instant completion. It blocks inside its callback until
// the next record is known, so the engine processes events in exactly
// the order it would over the whole sorted stream — including
// autoscaler ticks, which fire only once the clock is allowed to reach
// them.
func runPhase2Pump(b *engine, feed <-chan []p2rec, free chan<- []p2rec, total *uint64, gauge *backlogGauge) {
	var (
		buf []p2rec
		bi  int
	)
	next := func() (p2rec, bool) {
		if bi < len(buf) {
			v := buf[bi]
			bi++
			return v, true
		}
		if buf != nil {
			select {
			case free <- buf[:0]:
			default:
			}
			buf = nil
		}
		var ok bool
		buf, ok = <-feed
		if !ok {
			return p2rec{}, false
		}
		bi = 1
		return buf[0], true
	}
	// total is written by the merger before it closes the feed, and the
	// sink only reads it once drain observes the close.
	b.sink.emitted = total
	var cur p2rec
	var pump sim.Event
	pump = func(e *sim.Engine) {
		rec := &cur.rec
		req := b.x.pool.Get()
		req.ID = cur.id
		req.Site = rec.site
		req.Generated = rec.generated
		req.Done = b.sink
		req.NetworkRTT = rec.rtt
		req.AuxRTT = rec.aux
		req.ServiceTime = rec.service
		req.Tag = uint64(rec.tier)
		req.Class = rec.class
		b.x.admit(rec.tier, req)
		if gauge != nil {
			gauge.add(-1)
		}
		if nxt, ok := next(); ok {
			cur = nxt
			e.ArmLane(cur.rec.at, pump)
		} else {
			b.sink.drain()
		}
	}
	// Arm before Run: with controllers ticking, the engine must not
	// process anything until the first record's arrival time caps it.
	if first, ok := next(); ok {
		cur = first
		b.x.eng.ArmLane(cur.rec.at, pump)
	} else {
		b.sink.drain()
	}
	b.x.eng.Run()
	b.sink.stopScalers()
}

// RunPipelined replays the source through the topology on `shards`
// parallel phase-1 engines whose boundary records stream through
// watermarked bounded rings into the one shared-phase engine while the
// shards are still running. The result is bit-identical for every
// shard count (including 1); a count below 1 is an error (ResolveShards
// resolves an automatic setting), and the count is clamped to the site
// count. Resident boundary memory is bounded by ring capacity, not the
// boundary count. See Shardable for what disqualifies a topology.
//
// Options.TimelineBin and Options.Probe are rejected: both observe
// global event order, which sharding does not preserve.
// Options.BacklogProbe, when set, receives the run's peak resident
// boundary-record count. A shard whose source
// yields a site outside its range or goes back in time stops, and the
// run returns that error once every goroutine has exited.
func RunPipelined(src ShardedSource, topo Topology, opts Options, shards int) (*TopologyResult, error) {
	return runPipelined(src, topo, opts, shards, boundaryRing)
}

// runPipelined is RunPipelined with an explicit per-shard ring
// capacity in records.
func runPipelined(src ShardedSource, topo Topology, opts Options, shards, ringCap int) (*TopologyResult, error) {
	r, err := newShardRun(src, topo, opts, shards)
	if err != nil {
		return nil, err
	}
	opts = r.opts

	// Build phase 2 before launching any producer, so a construction
	// error cannot strand shards blocked on a full ring.
	p2, err := buildPhase2(r)
	if err != nil {
		return nil, err
	}

	var gauge *backlogGauge
	if opts.BacklogProbe != nil {
		gauge = &backlogGauge{}
	}

	grp := merge.NewGroup(r.shards, ringCap,
		func(a, b boundaryRec) bool { return boundaryBefore(&a, &b) },
		func(rec boundaryRec) float64 { return rec.at })

	// Phase 1: one goroutine per shard, publishing through its ring.
	// The pprof phase labels separate the three overlapped stages in
	// -cpuprofile/-memprofile output.
	var shardWG sync.WaitGroup
	for k, st := range r.states {
		shardWG.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("phase", "phase-1"), func(context.Context) {
			defer shardWG.Done()
			pub := &pipePublisher{grp: grp, ring: k, gauge: gauge}
			runShardPhase1(r.topo, r.plan, st, src.Shard(st.lo, st.hi), opts, pub)
		})
	}

	// Merger: pop watermark-safe records, assign canonical IDs and feed
	// them to phase 2 in batches. Exhausted batches come back on the free
	// list so steady state allocates nothing: feed holds two batches so
	// the merger fills the next while the pump replays one, and free
	// keeps the few batches that circulate.
	feed := make(chan []p2rec, 2)
	free := make(chan []p2rec, 4)
	var total uint64
	go pprof.Do(context.Background(), pprof.Labels("phase", "merge"), func(context.Context) {
		popped := make([]boundaryRec, 0, pipeBatch)
		var nextID uint64
		for {
			batch, ok := grp.NextBatch(popped[:0], pipeBatch)
			if !ok {
				break
			}
			popped = batch
			var out []p2rec
			select {
			case out = <-free:
			default:
				out = make([]p2rec, 0, pipeBatch)
			}
			for _, rec := range batch {
				nextID++
				out = append(out, p2rec{rec: rec, id: nextID})
			}
			feed <- out
		}
		total = nextID
		close(feed)
	})

	// Phase 2 runs on this goroutine, fed by the merger.
	pprof.Do(context.Background(), pprof.Labels("phase", "phase-2"), func(context.Context) {
		runPhase2Pump(p2, feed, free, &total, gauge)
	})
	shardWG.Wait()

	for _, st := range r.states {
		if st.err != nil {
			return nil, st.err
		}
	}
	if gauge != nil {
		opts.BacklogProbe(int(gauge.peak.Load()))
	}
	return finishSharded(r, p2), nil
}
