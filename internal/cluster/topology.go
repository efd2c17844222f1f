package cluster

import (
	"fmt"
	"math"

	"repro/internal/admit"
	"repro/internal/autoscale"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/queue"
)

// CentralQueueDispatch is the Tier.Dispatch value for a pooled central
// queue: the tier's first station receives every request (M/M/k
// semantics when the tier has one station with k servers).
const CentralQueueDispatch = "central-queue"

// Tier is one layer of a deployment graph: a set of stations sharing a
// network path, a routing rule, and optional per-tier behaviors
// (bounded queues, geographic jockeying, an autoscaler). The paper's
// "edge" is a home-routed tier with one station per site; its "cloud"
// is a single central-queue tier with pooled servers (see CloudTier).
// A Topology composes any number of tiers into deeper hierarchies.
type Tier struct {
	// Name identifies the tier; spill edges and class rules refer to it.
	Name string
	// Sites is the tier's station count. A home-routed tier needs one
	// station per trace site; dispatcher tiers may have any count.
	Sites int
	// ServersPerSite is each station's server count (default 1).
	ServersPerSite int
	// PerSiteServers optionally overrides ServersPerSite per station.
	PerSiteServers []int
	// Path is the client→tier network path; its RTT is sampled per
	// request entering the topology at this tier.
	Path netem.Path
	// PerSitePaths optionally gives each home site its own client
	// path (heterogeneous last-mile links). Home-routed tiers only.
	PerSitePaths []netem.Path
	// Discipline selects the stations' service order.
	Discipline queue.Discipline
	// QueueCap bounds each station's waiting queue (0 = unbounded).
	QueueCap int
	// Dispatch selects routing into the tier: "" routes each request
	// to its home site's station, CentralQueueDispatch sends everything
	// to the first station, and any lb.Policies() name load-balances
	// across the tier's stations.
	Dispatch string
	// SlowdownFactor > 1 inflates service times at this tier relative
	// to the trace's reference server (resource-constrained hardware,
	// §3.1.1). 0 or 1 means identical hardware.
	SlowdownFactor float64
	// JockeyThreshold enables §5.1 geographic balancing within the
	// tier: requests arriving at a station at or beyond the threshold
	// are redirected to the least-loaded sibling at DetourRTT extra
	// latency. Home-routed tiers only.
	JockeyThreshold int
	DetourRTT       float64
	// Scaler, when set, attaches a capacity controller to the tier's
	// stations — reactive thresholds or forecast-driven predictive
	// provisioning, selected by the spec's policy name (autoscale.New
	// registry).
	Scaler *autoscale.Spec
	// PricePerServerHour prices this tier's capacity for the cost
	// overlay (currency per server-hour). 0 selects the run pricing's
	// edge price for home-routed tiers and its cloud price otherwise.
	PricePerServerHour float64
	// Admission, when set, gates entry to the tier: requests the policy
	// refuses are rejected on the spot — no queueing, no service, no
	// spill — and counted in TierResult.Rejected. The decision happens
	// at the tier-entry instant, before the spill check, so a rejected
	// request never crosses a spill edge either. Token buckets are
	// per-site on home-routed tiers and tier-wide elsewhere (see
	// admit.New).
	Admission *admit.Spec
}

// homeRouted reports whether requests route to their home station.
func (t Tier) homeRouted() bool { return t.Dispatch == "" }

// SpillEdge forwards overloaded requests from one tier to another: a
// request arriving at a saturated From tier crosses to To instead,
// paying the sampled DetourPath RTT plus the fixed DetourRTT. This is
// the hierarchical edge cloud of the paper's related work (Tong et
// al.) generalized to chains of any depth.
type SpillEdge struct {
	From, To string
	// Threshold saturates the From tier: a home-routed tier spills
	// when the request's home station has Load() >= Threshold; other
	// tiers spill when every station is at or beyond it.
	Threshold int
	// DetourPath, when non-nil, is sampled for the crossing's network
	// cost. The edge out of the topology's first tier samples it at
	// generation time in record order (bit-compatible with the legacy
	// overflow runner); deeper edges sample a dedicated stream at
	// crossing time.
	DetourPath *netem.Path
	// DetourRTT is a fixed extra round trip added to every crossing.
	DetourRTT float64
}

// ClassRule pins a traffic class to an entry tier, overriding the
// default entry at the topology's first tier — e.g. a compliance
// class that must be served from the cloud in an otherwise
// edge-first deployment. Rules are evaluated in order; the first
// match wins. A spec's "classes" entries decode straight into these.
type ClassRule struct {
	Name string `json:"name"`
	// Sites restricts the rule to requests whose home site is in the
	// set (nil matches every site).
	Sites []int `json:"sites,omitzero"`
	// Fraction, when in (0,1), matches that share of the otherwise
	// eligible requests via an independent Bernoulli stream.
	Fraction float64 `json:"fraction,omitempty"`
	// Tier is the entry tier for matched requests.
	Tier string `json:"tier"`
}

// Topology is a declarative deployment graph: tiers connected by spill
// edges, with optional class pinning. The first tier is the default
// entry point for client requests. Execute with Run.
type Topology struct {
	Name    string
	Tiers   []Tier
	Spills  []SpillEdge
	Classes []ClassRule
}

// tierIndex resolves a tier name, or -1.
func (tp *Topology) tierIndex(name string) int {
	for i, t := range tp.Tiers {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// normalized returns a copy with defaults applied: ServersPerSite and
// SlowdownFactor floor at 1, empty topology names become "topology".
func (tp Topology) normalized() Topology {
	out := tp
	out.Tiers = append([]Tier(nil), tp.Tiers...)
	if out.Name == "" {
		out.Name = "topology"
	}
	for i := range out.Tiers {
		t := &out.Tiers[i]
		if t.ServersPerSite <= 0 {
			t.ServersPerSite = 1
		}
		if t.SlowdownFactor <= 0 {
			t.SlowdownFactor = 1
		}
	}
	return out
}

// badDelay reports a delay no event can be scheduled after: negative,
// NaN or infinite (NaN fails every ordered comparison, so "< 0" alone
// misses it).
func badDelay(x float64) bool { return !(x >= 0) || math.IsInf(x, 1) }

// Validate checks the graph's static shape: unique tier names, known
// dispatch policies, consistent per-site overrides, resolvable and
// acyclic spill edges (at most one out-edge per tier), finite
// non-negative detour RTTs, resolvable class rules, and a client path
// RTT on every entry tier and per-site path. Run validates implicitly.
func (tp Topology) Validate() error {
	if len(tp.Tiers) == 0 {
		return fmt.Errorf("cluster: topology %q has no tiers", tp.Name)
	}
	seen := map[string]bool{}
	homeSites := -1
	for i, t := range tp.Tiers {
		if t.Name == "" {
			return fmt.Errorf("cluster: tier %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("cluster: duplicate tier name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Sites <= 0 {
			return fmt.Errorf("cluster: tier %q needs at least one site", t.Name)
		}
		if t.Dispatch != "" && t.Dispatch != CentralQueueDispatch && !lb.Known(t.Dispatch) {
			return fmt.Errorf("cluster: tier %q has unknown dispatch %q (want %q, %v, or empty for home routing)",
				t.Name, t.Dispatch, CentralQueueDispatch, lb.Policies())
		}
		if t.PerSiteServers != nil && len(t.PerSiteServers) != t.Sites {
			return fmt.Errorf("cluster: tier %q has %d per-site server overrides for %d sites",
				t.Name, len(t.PerSiteServers), t.Sites)
		}
		if t.PerSitePaths != nil {
			if !t.homeRouted() {
				return fmt.Errorf("cluster: tier %q sets per-site paths but is not home-routed", t.Name)
			}
			if len(t.PerSitePaths) != t.Sites {
				return fmt.Errorf("cluster: tier %q has %d per-site paths for %d sites",
					t.Name, len(t.PerSitePaths), t.Sites)
			}
			for i, p := range t.PerSitePaths {
				if p.RTT == nil {
					return fmt.Errorf("cluster: tier %q per-site path %d has no RTT distribution", t.Name, i)
				}
			}
		}
		if t.JockeyThreshold > 0 && !t.homeRouted() {
			return fmt.Errorf("cluster: tier %q sets a jockey threshold but is not home-routed", t.Name)
		}
		if t.QueueCap < 0 {
			return fmt.Errorf("cluster: tier %q has a negative queue cap %d", t.Name, t.QueueCap)
		}
		if badDelay(t.DetourRTT) {
			return fmt.Errorf("cluster: tier %q has an invalid detour RTT %v (want finite and >= 0)", t.Name, t.DetourRTT)
		}
		// NaN slips through normalized()'s "<= 0 means default" floor —
		// every ordered comparison against NaN is false — so non-finite
		// factors must be rejected by name here.
		if math.IsNaN(t.SlowdownFactor) || math.IsInf(t.SlowdownFactor, 0) {
			return fmt.Errorf("cluster: tier %q has a non-finite slowdown factor %v", t.Name, t.SlowdownFactor)
		}
		if t.homeRouted() {
			if homeSites >= 0 && t.Sites != homeSites {
				return fmt.Errorf("cluster: home-routed tiers disagree on site count (%d vs %d)",
					homeSites, t.Sites)
			}
			homeSites = t.Sites
		}
		if t.Scaler != nil {
			if err := t.Scaler.Validate(); err != nil {
				return fmt.Errorf("cluster: tier %q scaler: %w", t.Name, err)
			}
		}
		if t.PricePerServerHour < 0 ||
			math.IsNaN(t.PricePerServerHour) || math.IsInf(t.PricePerServerHour, 0) {
			return fmt.Errorf("cluster: tier %q has an invalid server-hour price %v",
				t.Name, t.PricePerServerHour)
		}
		if t.Admission != nil {
			if err := t.Admission.Validate(); err != nil {
				return fmt.Errorf("cluster: tier %q admission: %w", t.Name, err)
			}
		}
	}
	outEdge := map[string]bool{}
	next := map[string]string{}
	for _, sp := range tp.Spills {
		if tp.tierIndex(sp.From) < 0 {
			return fmt.Errorf("cluster: spill edge from unknown tier %q", sp.From)
		}
		if tp.tierIndex(sp.To) < 0 {
			return fmt.Errorf("cluster: spill edge to unknown tier %q", sp.To)
		}
		if sp.From == sp.To {
			return fmt.Errorf("cluster: tier %q spills to itself", sp.From)
		}
		if sp.Threshold <= 0 {
			return fmt.Errorf("cluster: spill %s->%s needs a positive threshold", sp.From, sp.To)
		}
		if badDelay(sp.DetourRTT) {
			return fmt.Errorf("cluster: spill %s->%s has an invalid detour RTT %v (want finite and >= 0)",
				sp.From, sp.To, sp.DetourRTT)
		}
		if outEdge[sp.From] {
			return fmt.Errorf("cluster: tier %q has more than one spill edge", sp.From)
		}
		outEdge[sp.From] = true
		next[sp.From] = sp.To
	}
	// Follow each spill chain at most len(Tiers) hops to reject cycles.
	for from := range next {
		at, hops := from, 0
		for {
			to, ok := next[at]
			if !ok {
				break
			}
			at = to
			if hops++; hops >= len(tp.Tiers) {
				return fmt.Errorf("cluster: spill edges form a cycle through %q", from)
			}
		}
	}
	for _, c := range tp.Classes {
		if tp.tierIndex(c.Tier) < 0 {
			return fmt.Errorf("cluster: class %q pins to unknown tier %q", c.Name, c.Tier)
		}
		// The NaN check is load-bearing: "x < 0 || x > 1" is false for
		// NaN, and NaN also fails classify's "(0,1) means Bernoulli"
		// test, so a NaN fraction used to slip through validation and
		// silently pin every eligible request to the class's tier.
		if math.IsNaN(c.Fraction) || c.Fraction < 0 || c.Fraction > 1 {
			return fmt.Errorf("cluster: class %q fraction %v outside [0,1]", c.Name, c.Fraction)
		}
	}
	// Entry tiers — the first, and every class target — sample their
	// client path for each request they take from the source.
	entries := []Tier{tp.Tiers[0]}
	for _, c := range tp.Classes {
		entries = append(entries, tp.Tiers[tp.tierIndex(c.Tier)])
	}
	for _, t := range entries {
		if t.Path.RTT == nil {
			return fmt.Errorf("cluster: entry tier %q has no client path RTT distribution", t.Name)
		}
	}
	return nil
}

// CloudTier returns the paper's cloud as one tier named "cloud": servers
// pooled behind one central queue (an M/M/k station) when dispatch is
// CentralQueueDispatch or empty, otherwise that many single-server
// stations behind the named lb policy. A tier of fewer than one server
// has no stations, so Run rejects it.
func CloudTier(servers int, path netem.Path, dispatch string) Tier {
	t := Tier{Name: "cloud", Sites: servers, ServersPerSite: 1, Path: path, Dispatch: dispatch}
	if dispatch == "" || dispatch == CentralQueueDispatch {
		t.Dispatch = CentralQueueDispatch
		if servers > 0 {
			t.Sites, t.ServersPerSite = 1, servers
		}
	}
	return t
}
