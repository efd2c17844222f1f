// Package lb implements the request dispatchers used by the cloud
// deployment model and by the geographic load-balancing mitigation of
// §5.1. The paper's cloud is a single logical queue over k servers
// (M/M/k); a real deployment fronted by HAProxy approximates that with
// least-connection routing. Both are provided, along with round robin,
// power-of-two-choices, random, and a geographic balancer with
// jockeying for the edge.
package lb

import (
	"fmt"
	"math/rand"

	"repro/internal/queue"
)

// Dispatcher routes an arriving request to one of a fixed set of
// stations.
type Dispatcher interface {
	// Dispatch admits r to one of the stations.
	Dispatch(r *queue.Request)
	// Name identifies the policy.
	Name() string
}

// Policy names accepted by New, in the order they are listed by
// Policies. These are the single source of truth for dispatcher
// construction; the cluster topology builder and cmd/edgesim both
// resolve policy flags through this registry instead of maintaining
// their own switches.
const (
	PolicyRoundRobin = "round-robin"
	PolicyLeastConn  = "least-connections"
	PolicyPowerOfTwo = "power-of-two"
	PolicyRandom     = "random"
)

// Policies returns the registry's dispatcher names.
func Policies() []string {
	return []string{PolicyRoundRobin, PolicyLeastConn, PolicyPowerOfTwo, PolicyRandom}
}

// Known reports whether name is a registered dispatcher policy.
func Known(name string) bool {
	for _, p := range Policies() {
		if p == name {
			return true
		}
	}
	return false
}

// New constructs the named dispatcher over the stations. rng feeds the
// policies that randomize (tie-breaks, sampling); round-robin ignores
// it. Unknown names return an error listing the registry.
func New(name string, stations []queue.Server, rng *rand.Rand) (Dispatcher, error) {
	switch name {
	case PolicyRoundRobin:
		return NewRoundRobin(stations), nil
	case PolicyLeastConn:
		return NewLeastConnections(stations, rng), nil
	case PolicyPowerOfTwo:
		return NewPowerOfTwo(stations, rng), nil
	case PolicyRandom:
		return NewRandom(stations, rng), nil
	default:
		return nil, fmt.Errorf("lb: unknown dispatch policy %q (want one of %v)", name, Policies())
	}
}

// RoundRobin cycles through stations in order, HAProxy's default policy.
type RoundRobin struct {
	stations []queue.Server
	next     int
}

// NewRoundRobin returns a round-robin dispatcher.
func NewRoundRobin(stations []queue.Server) *RoundRobin {
	if len(stations) == 0 {
		panic("lb: round robin needs at least one station")
	}
	return &RoundRobin{stations: stations}
}

// Dispatch sends r to the next station in rotation.
func (d *RoundRobin) Dispatch(r *queue.Request) {
	s := d.stations[d.next]
	d.next = (d.next + 1) % len(d.stations)
	s.Arrive(r)
}

// Name returns "round-robin".
func (d *RoundRobin) Name() string { return "round-robin" }

// LeastConnections routes to the station with the fewest in-flight
// requests (queued + serving), HAProxy's leastconn policy and the closest
// practical approximation of a central queue.
type LeastConnections struct {
	stations []queue.Server
	rng      *rand.Rand
}

// NewLeastConnections returns a least-connections dispatcher; rng breaks
// ties randomly so no station is systematically favored.
func NewLeastConnections(stations []queue.Server, rng *rand.Rand) *LeastConnections {
	if len(stations) == 0 {
		panic("lb: least connections needs at least one station")
	}
	return &LeastConnections{stations: stations, rng: rng}
}

// Dispatch sends r to the least-loaded station.
func (d *LeastConnections) Dispatch(r *queue.Request) {
	best := 0
	bestLoad := d.stations[0].Load()
	ties := 1
	for i := 1; i < len(d.stations); i++ {
		l := d.stations[i].Load()
		switch {
		case l < bestLoad:
			best, bestLoad, ties = i, l, 1
		case l == bestLoad:
			ties++
			if d.rng != nil && d.rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	d.stations[best].Arrive(r)
}

// Name returns "least-connections".
func (d *LeastConnections) Name() string { return "least-connections" }

// PowerOfTwo samples two random stations and routes to the less loaded,
// the classic low-overhead approximation of join-shortest-queue.
type PowerOfTwo struct {
	stations []queue.Server
	rng      *rand.Rand
}

// NewPowerOfTwo returns a power-of-two-choices dispatcher.
func NewPowerOfTwo(stations []queue.Server, rng *rand.Rand) *PowerOfTwo {
	if len(stations) == 0 {
		panic("lb: power-of-two needs at least one station")
	}
	if rng == nil {
		panic("lb: power-of-two needs an rng")
	}
	return &PowerOfTwo{stations: stations, rng: rng}
}

// Dispatch samples two stations and sends r to the less loaded.
func (d *PowerOfTwo) Dispatch(r *queue.Request) {
	n := len(d.stations)
	if n == 1 {
		d.stations[0].Arrive(r)
		return
	}
	i := d.rng.Intn(n)
	j := d.rng.Intn(n - 1)
	if j >= i {
		j++
	}
	if d.stations[j].Load() < d.stations[i].Load() {
		i = j
	}
	d.stations[i].Arrive(r)
}

// Name returns "power-of-two".
func (d *PowerOfTwo) Name() string { return "power-of-two" }

// Random routes uniformly at random; with k single-server stations fed by
// a Poisson stream this reproduces k independent M/M/1 queues, the
// paper's worst-case edge model.
type Random struct {
	stations []queue.Server
	rng      *rand.Rand
}

// NewRandom returns a uniform random dispatcher.
func NewRandom(stations []queue.Server, rng *rand.Rand) *Random {
	if len(stations) == 0 || rng == nil {
		panic("lb: random dispatcher needs stations and an rng")
	}
	return &Random{stations: stations, rng: rng}
}

// Dispatch sends r to a uniformly random station.
func (d *Random) Dispatch(r *queue.Request) {
	d.stations[d.rng.Intn(len(d.stations))].Arrive(r)
}

// Name returns "random".
func (d *Random) Name() string { return "random" }

// Geographic routes each request to its "home" edge site unless that
// site's load exceeds JockeyThreshold, in which case the request is
// redirected to the least-loaded neighboring site at the cost of an
// extra DetourRTT of network latency. This is the §5.1 geographic
// load-balancing mitigation ("queue jockeying").
type Geographic struct {
	Sites           []queue.Server
	JockeyThreshold int     // redirect when home load ≥ threshold (0 disables)
	DetourRTT       float64 // extra round-trip seconds for a redirected request
	rng             *rand.Rand
	Redirected      uint64 // count of jockeyed requests
}

// NewGeographic returns a geographic balancer over the edge sites.
func NewGeographic(sites []queue.Server, jockeyThreshold int, detourRTT float64, rng *rand.Rand) *Geographic {
	if len(sites) == 0 {
		panic("lb: geographic balancer needs sites")
	}
	return &Geographic{Sites: sites, JockeyThreshold: jockeyThreshold, DetourRTT: detourRTT, rng: rng}
}

// Dispatch admits r at its home site (r.Site) or jockeys it elsewhere.
func (g *Geographic) Dispatch(r *queue.Request) {
	home := r.Site
	if home < 0 || home >= len(g.Sites) {
		panic(fmt.Sprintf("lb: request home site %d out of range", home))
	}
	if g.JockeyThreshold <= 0 || g.Sites[home].Load() < g.JockeyThreshold {
		g.Sites[home].Arrive(r)
		return
	}
	// Redirect to the least-loaded other site, if strictly better.
	best, bestLoad := home, g.Sites[home].Load()
	for i, s := range g.Sites {
		if i == home {
			continue
		}
		if l := s.Load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best != home {
		g.Redirected++
		r.NetworkRTT += g.DetourRTT
	}
	g.Sites[best].Arrive(r)
}

// Name returns "geographic".
func (g *Geographic) Name() string { return "geographic" }
