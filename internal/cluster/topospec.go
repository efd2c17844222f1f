package cluster

import (
	"encoding/json"
	"fmt"
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
// netem.Path values.
type TopologySpec struct {
	Name    string      `json:"name"`
	Tiers   []TierSpec  `json:"tiers"`
	Spills  []SpillSpec `json:"spills,omitempty"`
	Classes []ClassSpec `json:"classes,omitempty"`
}

// TierSpec describes one tier.
type TierSpec struct {
	Name    string `json:"name"`
	Sites   int    `json:"sites"`
	Servers int    `json:"servers"`
	// PerSiteServers optionally overrides Servers per station.
	PerSiteServers []int `json:"perSiteServers,omitempty"`
	// RTTMs/JitterMs parameterize the client→tier path: base round
	// trip plus uniform jitter in [0, JitterMs].
	RTTMs    float64 `json:"rttMs"`
	JitterMs float64 `json:"jitterMs,omitempty"`
	// TailSCV > 0 switches the path to a heavy-tailed lognormal with
	// the given squared CoV around RTTMs (cellular last miles).
	TailSCV float64 `json:"tailScv,omitempty"`
	// PerSiteRTTMs gives each home site its own mean RTT
	// (heterogeneous per-site paths); JitterMs/TailSCV apply to each.
	PerSiteRTTMs []float64 `json:"perSiteRttMs,omitempty"`
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
	// or predictive; see autoscale.Policies).
	Scaler *ScalerSpec `json:"scaler,omitempty"`
	// PricePerServerHour prices the tier's capacity for the cost
	// overlay (0 = the run pricing's default for the tier's shape).
	PricePerServerHour float64 `json:"pricePerServerHour,omitempty"`
	// Admission gates entry to the tier with an admit policy (see
	// admit.Policies); rejected requests count in TierResult.Rejected.
	Admission *AdmitSpec `json:"admission,omitempty"`
}

// AdmitSpec serializes an admit.Spec: the policy name plus the union
// of all policies' parameters. Rate is in admissions per second (per
// home site on a home-routed tier, tier-wide elsewhere) — already the
// simulator's units, so no millisecond conversion applies.
type AdmitSpec struct {
	Policy    string  `json:"policy"`
	Rate      float64 `json:"rate,omitempty"`
	Burst     float64 `json:"burst,omitempty"`
	Threshold int     `json:"threshold,omitempty"`
	Cutoff    int     `json:"cutoff,omitempty"`
}

// spec converts the JSON block to the admit layer's Spec.
func (s AdmitSpec) spec() admit.Spec {
	return admit.Spec{
		Policy:    s.Policy,
		Rate:      s.Rate,
		Burst:     s.Burst,
		Threshold: s.Threshold,
		Cutoff:    s.Cutoff,
	}
}

// ScalerSpec serializes an autoscale.Spec: the policy name plus the
// union of both policies' parameters (reactive threshold fields,
// predictive forecast fields). Times are in seconds — control periods
// are autoscaler-scale, not network-scale, so the codec keeps the
// simulator's units here.
type ScalerSpec struct {
	Policy    string  `json:"policy"`
	IntervalS float64 `json:"intervalS"`
	Min       int     `json:"min"`
	Max       int     `json:"max"`
	// Reactive parameters.
	Up        float64 `json:"up,omitempty"`
	Down      float64 `json:"down,omitempty"`
	CooldownS float64 `json:"cooldownS,omitempty"`
	Step      int     `json:"step,omitempty"`
	// Predictive parameters (see autoscale.Spec and forecast.Names).
	Mu         float64 `json:"mu,omitempty"`
	TargetUtil float64 `json:"targetUtil,omitempty"`
	Forecaster string  `json:"forecaster,omitempty"`
	Horizon    int     `json:"horizon,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	Beta       float64 `json:"beta,omitempty"`
}

// spec converts the JSON block to the autoscale layer's Spec.
func (s ScalerSpec) spec() autoscale.Spec {
	return autoscale.Spec{
		Policy:        s.Policy,
		Interval:      s.IntervalS,
		Min:           s.Min,
		Max:           s.Max,
		UpThreshold:   s.Up,
		DownThreshold: s.Down,
		Cooldown:      s.CooldownS,
		Step:          s.Step,
		Mu:            s.Mu,
		TargetUtil:    s.TargetUtil,
		Forecaster:    s.Forecaster,
		Horizon:       s.Horizon,
		Alpha:         s.Alpha,
		Beta:          s.Beta,
	}
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

// ClassSpec describes one pinned traffic class.
type ClassSpec struct {
	Name     string  `json:"name"`
	Sites    []int   `json:"sites,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Tier     string  `json:"tier"`
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

// Build converts the spec into an executable Topology.
func (s TopologySpec) Build() (Topology, error) {
	topo := Topology{Name: s.Name}
	for _, ts := range s.Tiers {
		disc, err := disciplineByName(ts.Discipline)
		if err != nil {
			return Topology{}, fmt.Errorf("tier %q: %w", ts.Name, err)
		}
		t := Tier{
			Name:            ts.Name,
			Sites:           ts.Sites,
			ServersPerSite:  ts.Servers,
			PerSiteServers:  ts.PerSiteServers,
			Path:            pathFrom(ts.Name, ts.RTTMs, ts.JitterMs, ts.TailSCV),
			Discipline:      disc,
			QueueCap:        ts.QueueCap,
			Dispatch:        ts.Dispatch,
			SlowdownFactor:  ts.Slowdown,
			JockeyThreshold: ts.Jockey,
			DetourRTT:       ts.DetourMs / 1000,
		}
		if ts.PerSiteRTTMs != nil {
			t.PerSitePaths = make([]netem.Path, len(ts.PerSiteRTTMs))
			for i, ms := range ts.PerSiteRTTMs {
				t.PerSitePaths[i] = pathFrom(fmt.Sprintf("%s-%d", ts.Name, i), ms, ts.JitterMs, ts.TailSCV)
			}
		}
		t.PricePerServerHour = ts.PricePerServerHour
		if a := ts.Admission; a != nil {
			spec := a.spec()
			t.Admission = &spec
		}
		if sc := ts.Scaler; sc != nil {
			spec := sc.spec()
			t.Scaler = &spec
		}
		topo.Tiers = append(topo.Tiers, t)
	}
	for _, sp := range s.Spills {
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
		topo.Classes = append(topo.Classes, ClassRule{
			Name:     c.Name,
			Sites:    c.Sites,
			Fraction: c.Fraction,
			Tier:     c.Tier,
		})
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
		Classes: []ClassSpec{
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
				Scaler: &ScalerSpec{
					Policy:    "reactive",
					IntervalS: 5, Min: 2, Max: 8, Up: 1.5, Down: 0.3, CooldownS: 15,
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
