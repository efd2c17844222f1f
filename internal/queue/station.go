// Package queue implements queueing stations on top of the sim engine:
// a G/G/c FCFS station (the model for both an edge site and the cloud
// cluster in the paper) with alternative disciplines (LIFO, SJF) for
// ablations. Stations collect the waiting-time, queue-length, arrival-rate
// and utilization metrics that the paper's analysis (§3) reasons about;
// a request's sojourn and end-to-end latency reach its Done sink.
package queue

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Discipline selects the order in which queued requests are served.
type Discipline int

// Supported service disciplines.
const (
	FCFS Discipline = iota // first come, first served (the paper's assumption)
	LIFO                   // last come, first served
	SJF                    // shortest job first (non-preemptive)
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "FCFS"
	case LIFO:
		return "LIFO"
	case SJF:
		return "SJF"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Request is one unit of work flowing through a station.
type Request struct {
	ID          uint64
	Site        int     // edge site index, or -1 for cloud
	Arrival     float64 // arrival time at the station
	ServiceTime float64 // execution time demanded
	Start       float64 // time service began
	Departure   float64 // time service completed
	NetworkRTT  float64 // round-trip network latency attributed to this request
	Generated   float64 // time the request left the client (Arrival - RTT/2 conceptually)

	// Tag is scratch routing state owned by the deployment model (e.g.
	// the hierarchical overflow runner marks forwarded requests). The
	// free list clears it on recycle.
	Tag uint64
	// AuxRTT carries a secondary network RTT sampled at generation time
	// for two-leg topologies (e.g. the cloud leg of an overflow
	// deployment), so routing decisions need no per-request closure.
	AuxRTT float64

	// Class is the request's SLO class rank, assigned by the deployment
	// model when its topology declares class rules: the matched rule's
	// index, or the rule count for unclassified traffic (earlier rules
	// outrank later ones; unclassified ranks last). The free list
	// clears it on recycle.
	Class int

	// Dropped is true when the station rejected the request (bounded
	// queue overflow); Departure is the rejection time and no service
	// was given.
	Dropped bool
	// Rejected is true when a tier's admission policy refused the
	// request at entry; Departure is the rejection time and the request
	// never reached a station.
	Rejected bool

	// Done is consumed on completion or drop; nil is allowed. A replay
	// shares one Sink across all its requests (see Sink); ad-hoc
	// callers can wrap a closure in DoneFunc.
	Done Sink
}

// Sink consumes a request when it completes or is dropped. One sink
// instance is shared by every request of a replay, replacing the
// per-request Done closures that dominated allocation in large runs.
// After Consume returns the request may be recycled (Station.Recycle),
// so implementations must copy out anything they need.
type Sink interface {
	Consume(e *sim.Engine, r *Request)
}

// DoneFunc adapts a plain function to the Sink interface.
type DoneFunc func(e *sim.Engine, r *Request)

// Consume invokes the function.
func (f DoneFunc) Consume(e *sim.Engine, r *Request) { f(e, r) }

// Wait returns the queueing delay experienced at the station.
func (r *Request) Wait() float64 { return r.Start - r.Arrival }

// Sojourn returns the total time at the station (wait + service).
func (r *Request) Sojourn() float64 { return r.Departure - r.Arrival }

// EndToEnd returns the full client-observed latency: network RTT plus
// station sojourn time, the quantity T = n + w + s in Equations 1–2.
func (r *Request) EndToEnd() float64 { return r.NetworkRTT + r.Sojourn() }

// Metrics aggregates a station's observations. Wait is a Digest: exact
// by default, switchable to bounded memory for long replays
// (Station.SetSummaryMode).
type Metrics struct {
	Wait     stats.Digest       // per-request queueing delay
	QueueLen stats.TimeWeighted // queue length (excluding in-service)
	Busy     stats.TimeWeighted // number of busy servers
	Arrivals stats.RateCounter
	Dropped  int64 // rejected by a bounded queue
}

// Utilization returns the time-average fraction of busy servers given the
// station's server count.
func (m *Metrics) Utilization(servers int) float64 {
	if servers <= 0 {
		return 0
	}
	return m.Busy.Average() / float64(servers)
}

// Station is a G/G/c queueing station with a single shared queue feeding
// c servers. With c=1 it models one edge server (paper's M/M/1 and G/G/1
// cases); with c=k and arrivals from all sites it models the cloud
// cluster (M/M/k, G/G/k).
type Station struct {
	Name    string
	Servers int
	Disc    Discipline
	// QueueCap bounds the number of waiting requests; arrivals beyond it
	// are dropped (G/G/c/K semantics). 0 means unbounded. The paper's
	// application "starts dropping requests or thrashing" at saturation
	// (§4.2); a bounded queue models that regime.
	QueueCap int
	// Recycle, when set, receives every request after its Done sink has
	// consumed it, so a replay can reuse request objects instead of
	// allocating one per record. All stations of a deployment share one
	// free list. Callers that retain requests past Done must leave this
	// nil.
	Recycle    *FreeList
	engine     *sim.Engine
	busy       int
	waiting    []*Request
	m          Metrics
	warmup     float64 // observations before this time are not recorded
	totalCount uint64
	completeFn sim.PayloadEvent
}

// NewStation creates a station with the given number of servers.
func NewStation(e *sim.Engine, name string, servers int, disc Discipline) *Station {
	if servers <= 0 {
		panic(fmt.Sprintf("queue: station %q needs at least one server", name))
	}
	s := &Station{Name: name, Servers: servers, Disc: disc, engine: e}
	// One completion callback for the station's lifetime: scheduling a
	// service completion allocates no closure per request.
	s.completeFn = func(e *sim.Engine, p any) { s.complete(p.(*Request)) }
	s.m.QueueLen.Set(e.Now(), 0)
	s.m.Busy.Set(e.Now(), 0)
	return s
}

// SetSummaryMode selects the metric memory model (stats.Exact retains
// every wait observation; stats.Bounded keeps constant state).
// Call before any request arrives.
func (s *Station) SetSummaryMode(m stats.Mode) {
	if m == stats.Bounded {
		s.m.Wait.SetBounded()
	}
}

// SetWarmup discards metric observations for requests that complete
// before time t, removing transient startup bias from steady-state
// measurements.
func (s *Station) SetWarmup(t float64) { s.warmup = t }

// Metrics exposes the station's collected metrics.
func (s *Station) Metrics() *Metrics { return &s.m }

// QueueLength returns the current number of waiting (not in-service)
// requests.
func (s *Station) QueueLength() int { return len(s.waiting) }

// Busy returns the number of servers currently serving requests.
func (s *Station) Busy() int { return s.busy }

// Load returns waiting plus in-service requests, the signal used by
// least-connection and power-of-two dispatchers.
func (s *Station) Load() int { return len(s.waiting) + s.busy }

// TotalArrivals returns the number of requests ever admitted.
func (s *Station) TotalArrivals() uint64 { return s.totalCount }

// Arrive admits a request at the current simulated time. The request's
// ServiceTime must already be set.
func (s *Station) Arrive(r *Request) {
	now := s.engine.Now()
	r.Arrival = now
	s.totalCount++
	if now >= s.warmup {
		s.m.Arrivals.Observe(now)
	}
	if s.busy < s.Servers {
		s.startService(r)
		return
	}
	if s.QueueCap > 0 && len(s.waiting) >= s.QueueCap {
		r.Dropped = true
		r.Departure = now
		if now >= s.warmup {
			s.m.Dropped++
		}
		if r.Done != nil {
			r.Done.Consume(s.engine, r)
		}
		if s.Recycle != nil {
			s.Recycle.Put(r)
		}
		return
	}
	s.enqueue(r)
	s.m.QueueLen.Set(now, float64(len(s.waiting)))
}

func (s *Station) enqueue(r *Request) {
	switch s.Disc {
	case FCFS, LIFO:
		s.waiting = append(s.waiting, r)
	case SJF:
		// Insert sorted by service time ascending.
		i := 0
		for i < len(s.waiting) && s.waiting[i].ServiceTime <= r.ServiceTime {
			i++
		}
		s.waiting = append(s.waiting, nil)
		copy(s.waiting[i+1:], s.waiting[i:])
		s.waiting[i] = r
	}
}

func (s *Station) dequeue() *Request {
	var r *Request
	switch s.Disc {
	case FCFS, SJF:
		r = s.waiting[0]
		copy(s.waiting, s.waiting[1:])
		s.waiting[len(s.waiting)-1] = nil
		s.waiting = s.waiting[:len(s.waiting)-1]
	case LIFO:
		r = s.waiting[len(s.waiting)-1]
		s.waiting[len(s.waiting)-1] = nil
		s.waiting = s.waiting[:len(s.waiting)-1]
	}
	return r
}

func (s *Station) startService(r *Request) {
	now := s.engine.Now()
	r.Start = now
	s.busy++
	s.m.Busy.Set(now, float64(s.busy))
	s.engine.AfterPayload(r.ServiceTime, s.completeFn, r)
}

func (s *Station) complete(r *Request) {
	now := s.engine.Now()
	r.Departure = now
	s.busy--
	s.m.Busy.Set(now, float64(s.busy))
	if now >= s.warmup {
		s.m.Wait.Add(r.Wait())
	}
	// Guarded on the server count so a shrink (SetServers) actually
	// drains: while busy still exceeds the new target, completing
	// servers retire instead of pulling the next waiting request.
	if s.busy < s.Servers && len(s.waiting) > 0 {
		next := s.dequeue()
		s.m.QueueLen.Set(now, float64(len(s.waiting)))
		s.startService(next)
	}
	if r.Done != nil {
		r.Done.Consume(s.engine, r)
	}
	if s.Recycle != nil {
		s.Recycle.Put(r)
	}
}

// SetServers changes the station's server count at the current simulated
// time, the primitive behind dynamic resource allocation (the paper's
// §5.1 "adjusted dynamically to match these workload changes" and its
// future-work direction). Growing the pool immediately starts service on
// waiting requests; shrinking lets in-flight services finish (busy may
// exceed the new target until they complete).
func (s *Station) SetServers(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("queue: station %q cannot scale to %d servers", s.Name, n))
	}
	s.Servers = n
	now := s.engine.Now()
	for s.busy < s.Servers && len(s.waiting) > 0 {
		next := s.dequeue()
		s.m.QueueLen.Set(now, float64(len(s.waiting)))
		s.startService(next)
	}
}

// Finish closes time-weighted metrics at the current simulated time.
// Call once after the simulation run completes.
func (s *Station) Finish() {
	now := s.engine.Now()
	s.m.QueueLen.Finish(now)
	s.m.Busy.Finish(now)
}

// String describes the station.
func (s *Station) String() string {
	return fmt.Sprintf("Station(%s, c=%d, %s)", s.Name, s.Servers, s.Disc)
}

// Server is the station interface dispatchers and the cluster model
// program against.
type Server interface {
	Arrive(r *Request)
	Load() int
	Metrics() *Metrics
	Finish()
}

var _ Server = (*Station)(nil)
