package cluster

import (
	"fmt"
	"math/rand"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SiteResult captures one station's measurements (one edge site on a
// home-routed tier). Its digests are empty, not nil, when the run did
// not collect them, so an empty digest reads the same as a site that
// served nothing: EndToEnd is collected only on a home-routed entry
// tier, and neither is under Options.NoPerSiteLatency.
type SiteResult struct {
	Site        int
	EndToEnd    stats.Digest // client-observed latency of requests from this home site, seconds
	Wait        stats.Digest // queueing delay at the station
	Utilization float64
	Arrivals    uint64
	MeanRate    float64
}

// Result captures one deployment run, aggregated across every tier;
// TopologyResult.Tiers carries the per-tier and per-site detail. Its
// digests may share state with the tiers' (a one-tier run's Wait is its
// tier's), so they are read-only: see stats.Digest.
type Result struct {
	Label       string
	EndToEnd    stats.Digest // all requests, client-observed latency
	Wait        stats.Digest // all requests, queueing delay
	Utilization float64      // load-weighted mean utilization
	Completed   uint64
	Duration    float64
	Timeline    *stats.TimeSeries // nil unless TimelineBin was set
	Redirected  uint64            // jockeyed requests (edge with geographic LB)
	Dropped     uint64            // requests rejected by bounded queues
	// Rejected counts requests refused by tier admission policies before
	// they reached any station (warmup included).
	Rejected uint64
}

// MeanLatency returns the mean end-to-end latency in seconds.
func (r *Result) MeanLatency() float64 { return r.EndToEnd.Mean() }

// P95Latency returns the 95th-percentile end-to-end latency in seconds.
func (r *Result) P95Latency() float64 { return r.EndToEnd.P95() }

// newDigests returns n empty digests in the given mode.
func newDigests(mode stats.Mode, n int) []stats.Digest {
	out := make([]stats.Digest, n)
	for i := range out {
		out[i] = stats.NewDigest(mode, 0)
	}
	return out
}

// feeder is the streaming heart of the topology executor: it holds
// exactly one pending trace record and keeps a single "generate next
// arrival" pump event in the engine's arrival lane (sim.ArmLane), so
// the engine holds no pump event at all and never more than the
// in-flight arrivals, regardless of trace length. The prep hook fills
// each request (network RTTs sampled at generation time in record
// order, service demand, entry tier). The lane runs the pump
// front-priority, and each arrival is scheduled front-priority
// (sim.AtPayloadFront), so both win exact-time ties against
// completions just as pre-scheduled arrivals would. An arrival no
// earlier than the last one still in flight — nearly all of them,
// since requests are generated in time order and a path's jitter is
// small next to the gaps between them — joins the engine's arrival
// FIFO; the rest go to the calendar. Together they keep the random
// sequence and the event order — and therefore every result —
// identical to a run that materializes all arrivals up front.
type feeder struct {
	src  Source
	pool *queue.FreeList
	// prep fills the request's NetworkRTT, AuxRTT, ServiceTime and Tag
	// (entry tier) from the record; any sampling must draw in record
	// order.
	prep      func(rec RequestRecord, req *queue.Request)
	sink      queue.Sink
	admit     sim.PayloadEvent // routes a request at its arrival instant
	onDrained func()           // source exhausted (may fire before start returns)
	probe     func(pending int)

	pump    sim.Event // bound once; re-armed for every record
	pending RequestRecord
	nextID  uint64
	count   uint64 // records emitted so far
	err     error  // a time regression in src; the engine stops on it
}

// start pulls the first record and arms the pump in the engine's
// arrival lane. Call before eng.Run.
func (f *feeder) start(e *sim.Engine) {
	f.pump = func(e *sim.Engine) { f.emit(e) }
	if rec, ok := f.src.Next(); ok {
		f.pending = rec
		e.ArmLane(rec.Time, f.pump)
	} else if f.onDrained != nil {
		f.onDrained()
	}
}

// emit fires at the pending record's generation time: it builds the
// request from the free list, schedules its arrival rtt/2 later, and
// re-arms the lane for the next record. The probe reads the engine's
// pending count before the re-arm, and the lane is never counted, so
// it sees the in-flight arrivals and completions only.
func (f *feeder) emit(e *sim.Engine) {
	rec := f.pending
	req := f.pool.Get()
	f.nextID++
	f.count++
	req.ID = f.nextID
	req.Site = rec.Site
	req.Generated = rec.Time
	req.Done = f.sink
	f.prep(rec, req)
	e.AtPayloadFront(rec.Time+req.NetworkRTT/2, f.admit, req)
	if f.probe != nil {
		f.probe(e.Pending())
	}
	if nxt, ok := f.src.Next(); ok {
		if nxt.Time < rec.Time {
			// The engine halts after this event; the caller reports err.
			f.err = fmt.Errorf("cluster: source yielded time %v after %v", nxt.Time, rec.Time)
			e.Stop()
			return
		}
		f.pending = nxt
		e.ArmLane(nxt.Time, f.pump)
	} else if f.onDrained != nil {
		f.onDrained()
	}
}

// engine is one sim.Engine of a run with everything built on it: the
// exec routing through the tiers it owns and the sink booking their
// completions (which holds the owned tiers' controllers). Run builds
// one, a sharded run one per phase-1 shard plus phase 2's, all through
// buildEngine.
type engine struct {
	x    *topoExec
	sink *sink
}

// buildEngine builds one engine of a run over the tiers it owns (owned,
// in tier order), booking spills, rejections and completions into
// counts: the run's result table on Run and phase 2, a shard's own on a
// phase-1 shard. It builds each tier, wires the spill edges out of the
// owned tiers and starts their controllers in tier order, so each
// ticker takes its place in the calendar before the feeder or the pump
// arms the arrival lane.
//
// Every engine keeps the same state: one end-to-end cell per owned
// (tier, class), and, unless NoPerSiteLatency is set, a wait digest per
// station and a per-site end-to-end table when the entry tier is
// home-routed; with it set, one wait digest per owned tier. Run and
// phase 2 pass a nil shard: each owned tier spans its whole site range
// and the engine allocates its own per-site table. A phase-1 shard
// passes its state: each owned home tier spans the shard's sites
// [lo, hi), and the sink adds to the table the run's shards share.
func buildEngine(topo Topology, opts Options, counts []TierResult, owned []int, shard *shardState) (*engine, error) {
	eng := sim.NewEngineBackend(opts.Seed, opts.backend)
	// Streams follow the layout in streams.go. A phase-1 shard is handed
	// the routing seeds too but draws none: planShards rejects
	// jockeying, home-tier scalers and sampled detours on non-entry home
	// spill edges, the only home-tier consumers of a routing stream.
	seeds := newRouteSeeds(topo, opts.Seed)
	pool := &queue.FreeList{}
	x := newTopoExec(eng, pool, counts)
	for _, ti := range owned {
		t := topo.Tiers[ti]
		lo, hi := 0, t.Sites
		if shard != nil {
			lo, hi = shard.lo, shard.hi
		}
		rt, err := buildTier(eng, t, lo, hi, opts, pool,
			func() *rand.Rand { return seeds.tier(ti) })
		if err != nil {
			return nil, err
		}
		x.tiers[ti] = rt
	}
	attachSpills(topo, x.tiers, seeds.spill)
	ctrls, err := startScalers(eng, x.tiers)
	if err != nil {
		return nil, err
	}
	sk := newSink(counts, x.tiers, opts)
	switch {
	case shard != nil:
		sk.perSite = shard.perSite
	case topo.Tiers[0].homeRouted() && !opts.NoPerSiteLatency:
		sk.perSite = newDigests(opts.Summary, topo.Tiers[0].Sites)
	}
	sk.ctrls = ctrls
	return &engine{x: x, sink: sk}, nil
}

// replay streams src through the engine on a feeder whose prep fills
// each request's generation-time fields, runs the calendar dry and
// stops the controllers; the caller closes the stations. A prep that
// cannot place a record sets x.err and stops the engine. replay returns
// the records pulled from src and the first error of the exec, the
// feeder and src: a FallibleSource that ended on a decode failure must
// surface it, since a replay over the decoded prefix would look like a
// clean result over a silently truncated workload. what names src in
// that error.
func (e *engine) replay(src Source, what string, prep func(RequestRecord, *queue.Request), probe func(pending int)) (uint64, error) {
	f := &feeder{src: src, pool: e.x.pool, prep: prep, sink: e.sink, admit: e.x.admitEv, probe: probe}
	e.sink.emitted = &f.count
	if len(e.sink.ctrls) > 0 {
		f.onDrained = e.sink.drain
	}
	f.start(e.x.eng)
	e.x.eng.Run()
	e.sink.stopScalers()
	if e.x.err != nil {
		return f.count, e.x.err
	}
	if f.err != nil {
		return f.count, f.err
	}
	if fs, ok := src.(FallibleSource); ok {
		if err := fs.Err(); err != nil {
			return f.count, fmt.Errorf("cluster: %s failed after %d records: %w", what, f.count, err)
		}
	}
	return f.count, nil
}
