package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/lb"
	"repro/internal/merge"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// tracer carries a traced run's in-situ probes. Broadcast variants
// replay concurrently, so each replay gets its own probe.
type tracer struct {
	mu     sync.Mutex
	probes []*pendingProbe
}

// pendingProbe accumulates the event-calendar sizes Options.Probe
// observes at every generated arrival of one replay.
type pendingProbe struct {
	sum, n uint64
	max    int
}

func (t *tracer) probe() func(pending int) {
	p := &pendingProbe{}
	t.mu.Lock()
	t.probes = append(t.probes, p)
	t.mu.Unlock()
	return func(pending int) {
		p.sum += uint64(pending)
		p.n++
		if pending > p.max {
			p.max = pending
		}
	}
}

// pending returns the mean and maximum calendar size across replays.
func (t *tracer) pending() (mean float64, max int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, n uint64
	for _, p := range t.probes {
		sum += p.sum
		n += p.n
		if p.max > max {
			max = p.max
		}
	}
	if n == 0 {
		return 0, max
	}
	return float64(sum) / float64(n), max
}

// isoReps is how many times each isolated layer call is repeated; the
// median is reported.
const isoReps = 3

// isolated times f isoReps times and returns the median of the values
// it reports (ns per operation).
func isolated(f func() float64) float64 {
	v := make([]float64, isoReps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

// nsPer returns host ns per operation since t0.
func nsPer(t0 time.Time, ops int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// genNs drains a fresh generator: ns per record.
func genNs(gen func() cluster.Source) float64 {
	src := gen()
	t0 := time.Now()
	n := 0
	for n < maxShapeRecs {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	return nsPer(t0, n)
}

// encode compiles records to .etb in memory.
func encode(recs []cluster.RequestRecord) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, &sliceSource{recs: recs}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodeNs times trace.WriteBinary over materialized records.
func encodeNs(recs []cluster.RequestRecord) (float64, error) {
	t0 := time.Now()
	if _, err := trace.WriteBinary(io.Discard, &sliceSource{recs: recs}); err != nil {
		return 0, err
	}
	return nsPer(t0, len(recs)), nil
}

// decodeNs drains a trace.StreamBinary decoder over data holding n
// records.
func decodeNs(data []byte, n int) (float64, error) {
	src := trace.StreamBinary(bytes.NewReader(data))
	t0 := time.Now()
	got := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		got++
	}
	ns := nsPer(t0, n)
	if err := src.Err(); err != nil {
		return 0, err
	}
	if got != n {
		return 0, fmt.Errorf("trace decoder yielded %d of %d records", got, n)
	}
	return ns, nil
}

// holdNs runs the classic hold model on one calendar backend: pop
// events stay pending, and each fired event schedules its successor
// after the next of the workload's service times. It returns ns per
// event processed.
func holdNs(b sim.Backend, pop int, incs []float64, events int) float64 {
	if pop < 1 {
		pop = 1
	}
	eng := sim.NewEngineBackend(1, b)
	left, k := events, 0
	var fire sim.PayloadEvent
	fire = func(e *sim.Engine, _ any) {
		if left <= 0 {
			return
		}
		left--
		e.AfterPayload(incs[k], fire, nil)
		if k++; k == len(incs) {
			k = 0
		}
	}
	for i := 0; i < pop; i++ {
		eng.AtPayload(incs[(i*7919)%len(incs)], fire, nil)
	}
	t0 := time.Now()
	eng.Run()
	return nsPer(t0, int(eng.Processed()))
}

// stationNs replays the records through the entry tier's stations on a
// fresh engine (one pending arrival at a time, as the replay core
// does) and returns the stations' self time per request: the run's
// time less the calendar's cost for the events it processed and the
// two digest adds (wait, sojourn) each completion makes.
func stationNs(sh *layerShape, calNs, addNs float64) float64 {
	eng := sim.NewEngine(1)
	pool := &queue.FreeList{}
	st := make([]*queue.Station, sh.sites)
	for i := range st {
		st[i] = queue.NewStation(eng, "station", sh.servers, queue.FCFS)
		st[i].SetSummaryMode(sh.mode)
		st[i].Recycle = pool
	}
	recs := sh.recs
	i := 0
	var pump sim.Event
	pump = func(e *sim.Engine) {
		rec := recs[i]
		i++
		req := pool.Get()
		req.Site = rec.Site
		req.ServiceTime = rec.ServiceTime
		st[rec.Site%len(st)].Arrive(req)
		if i < len(recs) {
			e.AtFront(recs[i].Time, pump)
		}
	}
	eng.AtFront(recs[0].Time, pump)
	t0 := time.Now()
	eng.Run()
	total := float64(time.Since(t0).Nanoseconds())
	n := float64(len(recs))
	return (total - float64(eng.Processed())*calNs - 2*n*addNs) / n
}

// digestNs fills a digest in the workload's mode with its service
// times: ns per Add, and ms for the first 0.99 quantile over them.
func digestNs(recs []cluster.RequestRecord, mode stats.Mode) (addNs, quantileMs float64) {
	d := stats.NewDigest(mode, 0)
	t0 := time.Now()
	for _, r := range recs {
		d.Add(r.ServiceTime)
	}
	addNs = nsPer(t0, len(recs))
	t1 := time.Now()
	d.Quantile(0.99)
	return addNs, float64(time.Since(t1).Nanoseconds()) / 1e6
}

// stubServer is a load-balancer target that only reports a load, so
// dispatch is timed without any station behind it.
type stubServer struct {
	load int
	m    queue.Metrics
}

func (s *stubServer) Arrive(*queue.Request)   { s.load = (s.load + 1) & 7 }
func (s *stubServer) Load() int               { return s.load }
func (s *stubServer) Metrics() *queue.Metrics { return &s.m }
func (s *stubServer) Finish()                 {}

// dispatchNs times power-of-two dispatch decisions over the workload's
// pool size, one per record.
func dispatchNs(pool, n int) (float64, error) {
	servers := make([]queue.Server, pool)
	for i := range servers {
		servers[i] = &stubServer{}
	}
	d, err := lb.New(lb.PolicyPowerOfTwo, servers, rand.New(rand.NewSource(1)))
	if err != nil {
		return 0, err
	}
	req := &queue.Request{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d.Dispatch(req)
	}
	return nsPer(t0, n), nil
}

// admitNs times the admission policy's decision on every record, one
// bucket per site.
func admitNs(sh *layerShape) (float64, error) {
	p, err := admit.New(sh.admit, sh.sites)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, r := range sh.recs {
		p.Admit(r.Time, r.Site%sh.sites, 0, 0)
	}
	return nsPer(t0, len(sh.recs)), nil
}

// mergeBatch is the batch size the isolated merge calls push and pop.
const mergeBatch = 256

// groupNs pushes the records, split by site into k time-ordered
// streams, through a merge.Group from k producer goroutines and drains
// it: ns per record merged.
func groupNs(recs []cluster.RequestRecord, k int) (float64, error) {
	parts := make([][]cluster.RequestRecord, k)
	for _, r := range recs {
		parts[r.Site%k] = append(parts[r.Site%k], r)
	}
	less := func(a, b cluster.RequestRecord) bool {
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Site < b.Site
	}
	g := merge.NewGroup(k, 4096, less, func(r cluster.RequestRecord) float64 { return r.Time })
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer g.Close(i)
			for lo := 0; lo < len(part); lo += mergeBatch {
				hi := min(lo+mergeBatch, len(part))
				if !g.Push(i, part[lo:hi]) {
					return
				}
				g.SetWatermark(i, part[hi-1].Time)
			}
		}()
	}
	n := 0
	buf := make([]cluster.RequestRecord, 0, mergeBatch)
	for {
		b, ok := g.NextBatch(buf[:0], mergeBatch)
		if !ok {
			break
		}
		n += len(b)
	}
	wg.Wait()
	ns := nsPer(t0, len(recs))
	if n != len(recs) {
		return 0, fmt.Errorf("merge.Group delivered %d of %d records", n, len(recs))
	}
	return ns, nil
}

// fanNs publishes the records through a merge.Fan to k consumer
// goroutines: ns per record published (each delivered k times).
func fanNs(recs []cluster.RequestRecord, k int) (float64, error) {
	f := merge.NewFan[cluster.RequestRecord](k, 4096)
	counts := make([]int, k)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]cluster.RequestRecord, 0, mergeBatch)
			for {
				b, ok := f.NextBatch(i, buf[:0], mergeBatch)
				if !ok {
					return
				}
				counts[i] += len(b)
			}
		}()
	}
	for lo := 0; lo < len(recs); lo += mergeBatch {
		f.Publish(recs[lo:min(lo+mergeBatch, len(recs))])
	}
	f.CloseProducer()
	wg.Wait()
	ns := nsPer(t0, len(recs))
	for i, c := range counts {
		if c != len(recs) {
			return 0, fmt.Errorf("merge.Fan ring %d delivered %d of %d records", i, c, len(recs))
		}
	}
	return ns, nil
}

// budgetLine is one layer's share of the ns/request budget: its
// isolated or in-situ cost per operation times its operations per
// replayed request.
type budgetLine struct {
	layer     string
	nsPerOp   float64
	opsPerReq float64
}

func (l budgetLine) nsPerReq() float64 { return l.nsPerOp * l.opsPerReq }

// budget stacks the layers against the end-to-end cost per replayed
// request: the process's CPU ns per request over the untraced passes,
// which on one core is the wall time and on two cores also counts the
// work the cores overlapped. The residual is what no layer accounts
// for: the engine's routing and sinks, goroutine hand-offs and GC.
type budget struct {
	e2e   float64
	lines []budgetLine
}

func (b budget) layers() float64 {
	var s float64
	for _, l := range b.lines {
		s += l.nsPerReq()
	}
	return s
}

func (b budget) residual() float64 { return b.e2e - b.layers() }

// insitu sums what the traced passes' results say the layers did.
type insitu struct {
	passes                       int
	requests, generated, scanned uint64
	pulled                       uint64
	served, rejected             uint64
	hop1, hop2                   uint64 // spills out of the first and second tier
	scaleEvents                  uint64
	backlog                      int
	lbReqs, admitReqs            uint64
}

func sumInsitu(passes []*passOut, sh *layerShape) insitu {
	var s insitu
	s.passes = len(passes)
	for _, p := range passes {
		s.requests += p.requests
		s.generated += p.generated
		s.scanned += p.scanned
		s.backlog = max(s.backlog, p.backlog)
		for _, r := range p.replays {
			s.pulled += r.pulled
			s.served += r.res.Completed
			s.rejected += r.res.Rejected
			for i := range r.res.Tiers {
				t := &r.res.Tiers[i]
				switch i {
				case 0:
					s.hop1 += t.Spilled
				case 1:
					s.hop2 += t.Spilled
				}
				s.scaleEvents += uint64(t.ScaleUps + t.ScaleDowns)
				if r.label == sh.lbReplay && t.Name == sh.lbTier {
					s.lbReqs += t.Served + t.Dropped
				}
			}
			if r.label == sh.admitReplay {
				s.admitReqs += r.res.Offered
			}
		}
	}
	return s
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// memDelta sums runtime.MemStats differences over the traced passes.
type memDelta struct {
	bytes, mallocs, pauseNs uint64
	cycles                  uint32
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.bytes += after.TotalAlloc - before.TotalAlloc
	d.mallocs += after.Mallocs - before.Mallocs
	d.pauseNs += after.PauseTotalNs - before.PauseTotalNs
	d.cycles += after.NumGC - before.NumGC
}

// traceRun is the --trace 1 run. For the run's seconds it alternates
// an untraced pass, the end-to-end reference, with a traced one
// (sampled source taps, calendar probes, MemStats deltas), so both see
// the same machine, and each side reports its median.
// Then the oracle pass runs with its probe, and each layer's public
// functions are called in isolation on the workload's own records and
// calendar population.
func traceRun(w io.Writer, r *runner, cfg config, ref *passOut, m map[string]metric) error {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	wl, chk := r.wl, r.chk
	var allocs memDelta
	tr := &tracer{}
	plain, traced := &timed{}, &timed{}
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(traced.rates) < minPasses || time.Now().Before(deadline) {
		if _, err := r.pass(plain, nil); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		_, err := r.pass(traced, tr)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		allocs.add(&ms0, &ms1)
	}
	plainRate := median(plain.rates)
	wallNs := 1e9 / plainRate
	e2eNs := plain.cpuPerRequest()
	tracedNs := 1e9 / median(traced.rates)

	serial, err := wl.oracle(ref, chk, tr)
	if err != nil {
		return err
	}
	if serial == 0 { // the workload's pass is the serial path
		serial = plainRate
	}
	sh, err := wl.shape()
	if err != nil {
		return err
	}
	s := sumInsitu(traced.passes, sh)
	pendMean, pendMax := tr.pending()
	clock := clockCost()
	passes := float64(s.passes)
	reqs := float64(s.requests)

	var isoErr error
	keep := func(v float64, err error) float64 {
		if err != nil && isoErr == nil {
			isoErr = err
		}
		return v
	}

	// In-situ source times. A generated workload's pull taps time the
	// generator; a decoded one's scan taps time the decoder, and the
	// isolated call fills in whichever layer did not run in situ.
	var genSelf, decSelf float64
	var encoded []byte
	if s.generated > 0 {
		genSelf = traced.taps.pulls.selfMean(clock)
	} else {
		genSelf = isolated(func() float64 { return genNs(sh.gen) })
	}
	if s.scanned > 0 {
		decSelf = traced.taps.scans.selfMean(clock)
	} else {
		if encoded, err = encode(sh.recs); err != nil {
			return err
		}
		decSelf = isolated(func() float64 { return keep(decodeNs(encoded, len(sh.recs))) })
	}
	put("workload.next_ns", genSelf, "ns")
	put("workload.recs", float64(s.generated)/passes, "count")
	put("trace.next_ns", decSelf, "ns")
	put("trace.keep_ratio", ratio(s.pulled, s.scanned), "ratio")
	put("trace.write_ns_per_rec", isolated(func() float64 { return keep(encodeNs(sh.recs)) }), "ns")

	pop := int(math.Round(pendMean))
	incs := make([]float64, len(sh.recs))
	for i, r := range sh.recs {
		incs[i] = r.ServiceTime
	}
	const holdEvents = 1_000_000
	calNs := isolated(func() float64 { return holdNs(sim.CalendarQueue, pop, incs, holdEvents) })
	heapNs := isolated(func() float64 { return holdNs(sim.BinaryHeap, pop, incs, holdEvents) })
	put("sim.pending_mean", pendMean, "count")
	put("sim.pending_max", float64(pendMax), "count")
	put("sim.calqueue_ns_per_event", calNs, "ns")
	put("sim.heap_ns_per_event", heapNs, "ns")

	adds, qs := make([]float64, isoReps), make([]float64, isoReps)
	for i := range adds {
		adds[i], qs[i] = digestNs(sh.recs, sh.mode)
	}
	addNs := median(adds)
	put("stats.add_ns", addNs, "ns")
	put("stats.quantile_ms", median(qs), "ms")
	stNs := isolated(func() float64 { return stationNs(sh, calNs, addNs) })
	put("queue.ns_per_req", stNs, "ns")

	lbNs := isolated(func() float64 { return keep(dispatchNs(sh.pool, len(sh.recs))) })
	admNs := isolated(func() float64 { return keep(admitNs(sh)) })
	grpNs := isolated(func() float64 { return keep(groupNs(sh.recs, etbShards)) })
	fNs := isolated(func() float64 { return keep(fanNs(sh.recs, sh.fanout)) })
	if isoErr != nil {
		return isoErr
	}
	put("lb.dispatch_ns", lbNs, "ns")
	put("admit.decide_ns", admNs, "ns")
	put("admit.reject_ratio", ratio(s.rejected, s.requests), "ratio")
	put("autoscale.scale_events", float64(s.scaleEvents)/passes, "count")

	put("cluster.spill_ratio_hop1", ratio(s.hop1, s.requests), "ratio")
	put("cluster.spill_ratio_hop2", ratio(s.hop2, s.hop1), "ratio")
	put("cluster.boundary_recs", float64(s.hop1)/passes, "count")
	put("cluster.serial_req_per_s", serial, "1/s")
	put("cluster.shard_speedup", plainRate/serial, "x")

	put("merge.backlog_peak", float64(s.backlog), "count")
	put("merge.group_ns_per_rec", grpNs, "ns")
	put("merge.fan_ns_per_rec", fNs, "ns")
	put("merge.producer_gap_ns", traced.taps.pulls.gapMean(clock), "ns")

	put("gc.alloc_b_per_req", float64(allocs.bytes)/reqs, "B")
	put("gc.allocs_per_req", float64(allocs.mallocs)/reqs, "count")
	put("gc.pause_ms", float64(allocs.pauseNs)/1e6/passes, "ms")
	put("gc.cycles", float64(allocs.cycles)/passes, "count")

	// The ledger: each layer's cost times how often a replayed request
	// meets it. Every request is pulled, scheduled (pump, arrival and
	// completion events, one more arrival per spill hop) and queued
	// once unless rejected; served requests add to the digests.
	spills := float64(s.hop1 + s.hop2)
	b := budget{e2e: e2eNs, lines: []budgetLine{
		{"workload", genSelf, float64(s.generated) / reqs},
		{"trace", decSelf, float64(s.scanned) / reqs},
		{"sim", calNs, (3*reqs + spills - float64(s.rejected)) / reqs},
		{"queue", stNs, (reqs - float64(s.rejected)) / reqs},
		{"stats", addNs, sh.adds * float64(s.served) / reqs},
		{"lb", lbNs, float64(s.lbReqs) / reqs},
		{"admit", admNs, float64(s.admitReqs) / reqs},
	}}
	if sh.grouped {
		b.lines = append(b.lines, budgetLine{"merge.group", grpNs, float64(s.hop1) / reqs})
	}
	if sh.fanned {
		b.lines = append(b.lines, budgetLine{"merge.fan", fNs, float64(s.generated) / reqs})
	}
	put("budget.e2e_ns_per_req", b.e2e, "ns")
	put("budget.layers_ns_per_req", b.layers(), "ns")
	put("budget.residual_ns_per_req", b.residual(), "ns")
	put("tracing_overhead_pct", 100*(tracedNs-wallNs)/wallNs, "%")

	fmt.Fprintf(w, "sim hold model at population %d: calendar queue %.1f ns/event, binary heap %.1f ns/event\n", pop, calNs, heapNs)
	fmt.Fprintf(w, "budget per replayed request (%d traced passes):\n", s.passes)
	for _, l := range b.lines {
		fmt.Fprintf(w, "  %-12s %9.1f ns/op x %7.4f ops/req = %8.1f ns\n", l.layer, l.nsPerOp, l.opsPerReq, l.nsPerReq())
	}
	fmt.Fprintf(w, "  layers %.1f ns + residual %.1f ns = e2e %.1f CPU ns (wall %.1f ns)\n", b.layers(), b.residual(), b.e2e, wallNs)
	return nil
}
