package cluster

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/admit"
	"repro/internal/autoscale"
	"repro/internal/netem"
	"repro/internal/queue"
)

// TopologySpec is the serializable form of a Topology, the schema
// behind cmd/edgesim's -topology flag. Times are in milliseconds
// (matching the CLI's other flags) and paths are described
// parametrically; Build converts to the simulator's seconds and
// netem.Path values. Admission, scaler and class blocks decode straight
// into admit.Spec, autoscale.Spec and ClassRule. Lists are omitzero, so
// an empty list ("perSiteServers": [] is an error) survives a round trip.
type TopologySpec struct {
	Name    string      `json:"name"`
	Tiers   []TierSpec  `json:"tiers"`
	Spills  []SpillSpec `json:"spills,omitzero"`
	Classes []ClassRule `json:"classes,omitzero"`
}

// TierSpec describes one tier. Every latency key (rttMs, jitterMs,
// tailScv, perSiteRttMs, detourMs) must be finite and >= 0.
type TierSpec struct {
	Name    string `json:"name"`
	Sites   int    `json:"sites"`
	Servers int    `json:"servers"`
	// PerSiteServers optionally overrides Servers per station.
	PerSiteServers []int `json:"perSiteServers,omitzero"`
	// RTTMs/JitterMs parameterize the client→tier path: base round
	// trip plus uniform jitter in [0, JitterMs].
	RTTMs    float64 `json:"rttMs"`
	JitterMs float64 `json:"jitterMs,omitempty"`
	// TailSCV > 0 switches the path to a heavy-tailed lognormal with
	// the given squared CoV around RTTMs (cellular last miles).
	TailSCV float64 `json:"tailScv,omitempty"`
	// PerSiteRTTMs gives each home site its own mean RTT
	// (heterogeneous per-site paths); JitterMs/TailSCV apply to each.
	PerSiteRTTMs []float64 `json:"perSiteRttMs,omitzero"`
	// Dispatch: "" = home routing, "central-queue", or an
	// lb.Policies() name.
	Dispatch string `json:"dispatch,omitempty"`
	// Discipline: "fcfs" (default), "lifo", or "sjf".
	Discipline string  `json:"discipline,omitempty"`
	QueueCap   int     `json:"queueCap,omitempty"`
	Slowdown   float64 `json:"slowdown,omitempty"`
	// Jockey/DetourMs configure §5.1 geographic balancing.
	Jockey   int     `json:"jockey,omitempty"`
	DetourMs float64 `json:"detourMs,omitempty"`
	// Scaler attaches a capacity controller by policy name (reactive
	// or predictive; see autoscale.Policies). Its times are in seconds.
	Scaler *autoscale.Spec `json:"scaler,omitempty"`
	// PricePerServerHour prices the tier's capacity for the cost
	// overlay (0 = the run pricing's default for the tier's shape).
	PricePerServerHour float64 `json:"pricePerServerHour,omitempty"`
	// Admission gates entry to the tier with an admit policy (see
	// admit.Policies); rejected requests count in TierResult.Rejected.
	Admission *admit.Spec `json:"admission,omitempty"`
}

// SpillSpec describes one overflow edge.
type SpillSpec struct {
	From      string `json:"from"`
	To        string `json:"to"`
	Threshold int    `json:"threshold"`
	// DetourMs adds a fixed round trip per crossing; SampleToRTT
	// additionally samples the target tier's client path (the seed's
	// overflow runner's behavior).
	DetourMs    float64 `json:"detourMs,omitempty"`
	SampleToRTT bool    `json:"sampleToRtt,omitempty"`
}

// nonNegative rejects a spec key holding a negative or non-finite
// value, naming the key: a negative RTT would shift latencies below
// zero, and a negative detour would schedule an event in the past.
func nonNegative(key string, v float64) error {
	if badDelay(v) {
		return fmt.Errorf("%s must be finite and >= 0 (got %v)", key, v)
	}
	return nil
}

// pathFrom builds one client path from the spec's parameters.
func pathFrom(name string, rttMs, jitterMs, tailSCV float64) netem.Path {
	if tailSCV > 0 {
		return netem.HeavyTailed(name, rttMs/1000, tailSCV)
	}
	return netem.Jittered(name, rttMs/1000, jitterMs/1000)
}

// disciplineByName maps the spec's discipline strings.
func disciplineByName(s string) (queue.Discipline, error) {
	switch strings.ToLower(s) {
	case "", "fcfs":
		return queue.FCFS, nil
	case "lifo":
		return queue.LIFO, nil
	case "sjf":
		return queue.SJF, nil
	default:
		return 0, fmt.Errorf("cluster: unknown discipline %q (want fcfs|lifo|sjf)", s)
	}
}

// Build converts the spec into an executable Topology. The Topology
// shares no block or slice with the spec, so mutating it leaves the
// spec (a preset's included) unchanged.
func (s TopologySpec) Build() (Topology, error) {
	topo := Topology{Name: s.Name}
	for _, ts := range s.Tiers {
		disc, err := disciplineByName(ts.Discipline)
		if err != nil {
			return Topology{}, fmt.Errorf("tier %q: %w", ts.Name, err)
		}
		err = cmp.Or(nonNegative("rttMs", ts.RTTMs), nonNegative("jitterMs", ts.JitterMs),
			nonNegative("tailScv", ts.TailSCV), nonNegative("detourMs", ts.DetourMs))
		for i, ms := range ts.PerSiteRTTMs {
			if err == nil && badDelay(ms) {
				err = nonNegative(fmt.Sprintf("perSiteRttMs[%d]", i), ms)
			}
		}
		if err != nil {
			return Topology{}, fmt.Errorf("cluster: tier %q: %w", ts.Name, err)
		}
		t := Tier{
			Name:               ts.Name,
			Sites:              ts.Sites,
			ServersPerSite:     ts.Servers,
			PerSiteServers:     slices.Clone(ts.PerSiteServers),
			Path:               pathFrom(ts.Name, ts.RTTMs, ts.JitterMs, ts.TailSCV),
			Discipline:         disc,
			QueueCap:           ts.QueueCap,
			Dispatch:           ts.Dispatch,
			SlowdownFactor:     ts.Slowdown,
			JockeyThreshold:    ts.Jockey,
			DetourRTT:          ts.DetourMs / 1000,
			PricePerServerHour: ts.PricePerServerHour,
		}
		if ts.PerSiteRTTMs != nil {
			t.PerSitePaths = make([]netem.Path, len(ts.PerSiteRTTMs))
			for i, ms := range ts.PerSiteRTTMs {
				t.PerSitePaths[i] = pathFrom(fmt.Sprintf("%s-%d", ts.Name, i), ms, ts.JitterMs, ts.TailSCV)
			}
		}
		if ts.Admission != nil {
			a := *ts.Admission
			t.Admission = &a
		}
		if ts.Scaler != nil {
			sc := *ts.Scaler
			t.Scaler = &sc
		}
		topo.Tiers = append(topo.Tiers, t)
	}
	for _, sp := range s.Spills {
		if err := nonNegative("detourMs", sp.DetourMs); err != nil {
			return Topology{}, fmt.Errorf("cluster: spill %s->%s: %w", sp.From, sp.To, err)
		}
		edge := SpillEdge{
			From:      sp.From,
			To:        sp.To,
			Threshold: sp.Threshold,
			DetourRTT: sp.DetourMs / 1000,
		}
		if sp.SampleToRTT {
			ti := topo.tierIndex(sp.To)
			if ti < 0 {
				return Topology{}, fmt.Errorf("cluster: spill edge to unknown tier %q", sp.To)
			}
			p := topo.Tiers[ti].Path
			edge.DetourPath = &p
		}
		topo.Spills = append(topo.Spills, edge)
	}
	for _, c := range s.Classes {
		c.Sites = slices.Clone(c.Sites)
		topo.Classes = append(topo.Classes, c)
	}
	topo = topo.normalized()
	if err := topo.Validate(); err != nil {
		return Topology{}, err
	}
	return topo, nil
}

// ParseTopologySpec decodes a JSON topology spec, rejecting unknown
// fields so typos in hand-written specs fail loudly.
func ParseTopologySpec(data []byte) (TopologySpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s TopologySpec
	if err := dec.Decode(&s); err != nil {
		return TopologySpec{}, fmt.Errorf("cluster: bad topology spec: %w", err)
	}
	return s, nil
}

// ParseTopology decodes and builds a JSON topology spec in one step.
func ParseTopology(data []byte) (Topology, error) {
	s, err := ParseTopologySpec(data)
	if err != nil {
		return Topology{}, err
	}
	return s.Build()
}

// presetSpecs are the named multi-tier deployments shipped with the
// simulator, beyond the paper's one-tier edge and cloud.
var presetSpecs = map[string]TopologySpec{
	// A three-level hierarchy: overloaded edge sites spill to a small
	// regional cluster, and a saturated regional cluster spills on to
	// the big cloud pool. Each hop pays that tier's client RTT.
	"edge-regional-cloud": {
		Name: "edge-regional-cloud",
		Tiers: []TierSpec{
			{Name: "edge", Sites: 5, Servers: 1, RTTMs: 1, JitterMs: 0.2},
			{Name: "regional", Sites: 1, Servers: 3, RTTMs: 13, JitterMs: 2, Dispatch: CentralQueueDispatch},
			{Name: "cloud", Sites: 1, Servers: 5, RTTMs: 25, JitterMs: 3, Dispatch: CentralQueueDispatch},
		},
		Spills: []SpillSpec{
			{From: "edge", To: "regional", Threshold: 3, SampleToRTT: true},
			{From: "regional", To: "cloud", Threshold: 6, SampleToRTT: true},
		},
	},
	// A hybrid split: most traffic is served at the edge, but the
	// traffic of two sites (say, a compliance or GPU-bound class) is
	// pinned to the cloud pool, which also backstops edge overload.
	"hybrid-pinned-cloud": {
		Name: "hybrid-pinned-cloud",
		Tiers: []TierSpec{
			{Name: "edge", Sites: 5, Servers: 1, RTTMs: 1, JitterMs: 0.2},
			{Name: "cloud", Sites: 1, Servers: 5, RTTMs: 25, JitterMs: 3, Dispatch: CentralQueueDispatch},
		},
		Spills: []SpillSpec{
			{From: "edge", To: "cloud", Threshold: 4, SampleToRTT: true},
		},
		Classes: []ClassRule{
			{Name: "cloud-pinned", Sites: []int{3, 4}, Tier: "cloud"},
		},
	},
	// Heterogeneous last miles: three metro sites at 1 ms, one
	// suburban site at 8 ms, one rural site behind a 40 ms link — all
	// backed by an autoscaled regional cluster absorbing overload.
	"hetero-paths": {
		Name: "hetero-paths",
		Tiers: []TierSpec{
			{
				Name: "edge", Sites: 5, Servers: 1,
				RTTMs: 1, JitterMs: 0.2,
				PerSiteRTTMs: []float64{1, 1, 1, 8, 40},
			},
			{
				Name: "regional", Sites: 1, Servers: 2, RTTMs: 13, JitterMs: 2,
				Dispatch: CentralQueueDispatch,
				Scaler: &autoscale.Spec{
					Policy:   autoscale.PolicyReactive,
					Interval: 5, Min: 2, Max: 8, UpThreshold: 1.5, DownThreshold: 0.3, Cooldown: 15,
				},
			},
		},
		Spills: []SpillSpec{
			{From: "edge", To: "regional", Threshold: 3, SampleToRTT: true},
		},
	},
}

// TopologyPresets lists the shipped preset names.
func TopologyPresets() []string {
	return []string{"edge-regional-cloud", "hybrid-pinned-cloud", "hetero-paths"}
}

// PresetTopology builds a shipped preset by name.
func PresetTopology(name string) (Topology, bool) {
	s, ok := presetSpecs[name]
	if !ok {
		return Topology{}, false
	}
	t, err := s.Build()
	if err != nil {
		panic(fmt.Sprintf("cluster: preset %q invalid: %v", name, err))
	}
	return t, true
}
