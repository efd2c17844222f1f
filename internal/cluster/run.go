package cluster

import (
	"fmt"

	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SiteResult captures one station's measurements (one edge site on a
// home-routed tier).
type SiteResult struct {
	Site        int
	EndToEnd    stats.Digest // client-observed latency, seconds
	Wait        stats.Digest // queueing delay at the site
	Utilization float64
	Arrivals    uint64
	MeanRate    float64
}

// Result captures one deployment run, aggregated across every tier;
// TopologyResult.Tiers carries the per-tier and per-site detail.
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

// newResult builds a result whose digests follow the requested memory
// model.
func newResult(label string, mode stats.Mode) *Result {
	return &Result{
		Label:    label,
		EndToEnd: stats.NewDigest(mode, 0),
		Wait:     stats.NewDigest(mode, 0),
	}
}

// newDigests returns n empty digests in the given mode.
func newDigests(mode stats.Mode, n int) []stats.Digest {
	out := make([]stats.Digest, n)
	if mode == stats.Bounded {
		for i := range out {
			out[i].SetBounded()
		}
	}
	return out
}

// feeder is the streaming heart of the topology executor: it holds
// exactly one pending trace record and keeps a single "generate next
// arrival" pump event in the engine's arrival lane (sim.ArmLane), so
// the event calendar holds no pump at all and never more than the
// in-flight arrivals, regardless of trace length. The prep hook fills
// each request (network RTTs sampled at generation time in record
// order, service demand, entry tier). The lane runs the pump
// front-priority, and each arrival is scheduled front-priority
// (sim.AtPayloadFront), so both win exact-time ties against
// completions just as pre-scheduled arrivals would. Together they keep
// the random sequence and the event order — and therefore every result
// — identical to a run that materializes all arrivals up front.
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
// re-arms the lane for the next record. The probe reads the calendar
// before the re-arm, and the lane is never in the calendar, so it sees
// the in-flight arrivals and completions only.
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

// runDeployment is the topology-independent replay core: stream the
// source through the feeder, run the calendar dry, and close the
// stations' time-weighted metrics.
func runDeployment(eng *sim.Engine, f *feeder, res *Result, stations []*queue.Station) {
	f.start(eng)
	res.Duration = eng.Run()
	for _, s := range stations {
		s.Finish()
	}
}

// newStation builds a deployment station wired for the run: warmup,
// queue bound, summary mode, and the shared request free list.
func newStation(eng *sim.Engine, name string, servers int, disc queue.Discipline,
	queueCap int, warmup float64, mode stats.Mode, pool *queue.FreeList) *queue.Station {
	st := queue.NewStation(eng, name, servers, disc)
	st.QueueCap = queueCap
	st.SetWarmup(warmup)
	st.SetSummaryMode(mode)
	st.Recycle = pool
	return st
}
