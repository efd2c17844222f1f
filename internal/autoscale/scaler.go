package autoscale

import (
	"fmt"

	"repro/internal/forecast"
)

// Policy names accepted by New, in the order listed by Policies. Like
// lb.Policies, this registry is the single source of truth for scaler
// construction: the cluster topology layer, the JSON topology codec and
// cmd/edgesim all resolve policy names through it.
const (
	PolicyReactive   = "reactive"
	PolicyPredictive = "predictive"
)

// Policies returns the registry's scaler policy names.
func Policies() []string { return []string{PolicyReactive, PolicyPredictive} }

// KnownPolicy reports whether name is a registered scaler policy.
func KnownPolicy(name string) bool {
	for _, p := range Policies() {
		if p == name {
			return true
		}
	}
	return false
}

// Telemetry summarizes one scaler's activity over a run, the per-tier
// numbers TierResult reports: how often it acted, the provisioning
// headroom it used, and the integrated capacity it consumed (the input
// to the econ cost overlay).
type Telemetry struct {
	Policy      string
	ScaleUps    int
	ScaleDowns  int
	PeakServers int
	// ServerSeconds integrates the provisioned server count over the
	// run [0, end], the quantity priced by econ.AutoscaledCost.
	ServerSeconds float64
}

// Spec declaratively selects and parameterizes a scaler policy. It is
// the only description of a scaler: cluster.Tier carries one, the JSON
// topology codec decodes a tier's "scaler" block (times in seconds)
// straight into one, and New builds its Controller. A spec sets only
// the fields its policy reads; Validate rejects the rest.
type Spec struct {
	// Policy is PolicyReactive or PolicyPredictive.
	Policy string `json:"policy"`
	// Interval is the control period, seconds; Min and Max bound each
	// station's server count. Shared by both policies.
	Interval float64 `json:"intervalS"`
	Min      int     `json:"min"`
	Max      int     `json:"max"`

	// Reactive parameters: scale up when in-flight requests per server
	// is at or above UpThreshold, down when at or below DownThreshold,
	// by Step servers per action (0 = 1), at most once per Cooldown
	// seconds at each station.
	UpThreshold   float64 `json:"up,omitempty"`
	DownThreshold float64 `json:"down,omitempty"`
	Cooldown      float64 `json:"cooldownS,omitempty"`
	Step          int     `json:"step,omitempty"`

	// Predictive parameters: provision servers of service rate Mu
	// (req/s) so the forecast utilization stays at or below TargetUtil.
	// Forecaster names a forecast registry model ("" = "ewma"); Horizon
	// is the window of the windowed models (sma, window-max); Alpha and
	// Beta are the smoothing factors of ewma and holt (0 = model
	// defaults).
	Mu         float64 `json:"mu,omitempty"`
	TargetUtil float64 `json:"targetUtil,omitempty"`
	Forecaster string  `json:"forecaster,omitempty"`
	Horizon    int     `json:"horizon,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	Beta       float64 `json:"beta,omitempty"`
}

// DefaultReactiveSpec returns a conservative reactive policy: check
// every 5 s, scale up above 1.5 in-flight per server, down below 0.3,
// one server at a time with a 15 s cooldown.
func DefaultReactiveSpec(min, max int) Spec {
	return Spec{
		Policy:        PolicyReactive,
		Interval:      5,
		Min:           min,
		Max:           max,
		UpThreshold:   1.5,
		DownThreshold: 0.3,
		Cooldown:      15,
		Step:          1,
	}
}

// DefaultPredictiveSpec returns the standard predictive policy — 5 s
// control period, provisioning for 70% target utilization at the given
// service rate — shared by the CLI flag parser and the comparison
// harness so "predictive/<forecaster>" means the same parameters
// everywhere.
func DefaultPredictiveSpec(min, max int, mu float64, forecaster string) Spec {
	return Spec{
		Policy:     PolicyPredictive,
		Interval:   5,
		Min:        min,
		Max:        max,
		Mu:         mu,
		TargetUtil: 0.7,
		Forecaster: forecaster,
	}
}

// forecaster resolves the predictive spec's forecaster factory by name
// through the forecast registry.
func (s Spec) forecaster() (func() forecast.Forecaster, error) {
	name := s.Forecaster
	if name == "" {
		name = forecast.ModelEWMA
	}
	return forecast.New(name, forecast.Options{Window: s.Horizon, Alpha: s.Alpha, Beta: s.Beta})
}

// Label names the spec for result rows: the policy name, plus the
// resolved forecaster for predictive specs ("predictive/holt-0.5-0.3").
func (s Spec) Label() string {
	if s.Policy != PolicyPredictive {
		return s.Policy
	}
	mk, err := s.forecaster()
	if err != nil {
		return s.Policy + "/" + s.Forecaster
	}
	return s.Policy + "/" + mk().Name()
}

// Validate checks the spec statically, so invalid declarative
// topologies fail before a run starts instead of inside one. Like
// forecast.Options, no value rides along unread: a field the chosen
// policy never reads is an error naming it.
func (s Spec) Validate() error {
	if !KnownPolicy(s.Policy) {
		return fmt.Errorf("autoscale: unknown scaler policy %q (want one of %v)", s.Policy, Policies())
	}
	if s.Interval <= 0 || s.Min <= 0 || s.Max < s.Min {
		return fmt.Errorf("autoscale: invalid interval/bounds in spec %+v", s)
	}
	// unread lists the fields of the other policy, by name and whether
	// the spec sets them.
	type field struct {
		name string
		set  bool
	}
	var unread []field
	switch s.Policy {
	case PolicyReactive:
		if s.UpThreshold <= s.DownThreshold {
			return fmt.Errorf("autoscale: reactive spec needs UpThreshold > DownThreshold, got %v <= %v",
				s.UpThreshold, s.DownThreshold)
		}
		if !(s.Cooldown >= 0) {
			return fmt.Errorf("autoscale: reactive spec needs Cooldown >= 0, got %v", s.Cooldown)
		}
		if s.Step < 0 {
			return fmt.Errorf("autoscale: reactive spec needs Step >= 0 (0 = 1), got %d", s.Step)
		}
		unread = []field{{"Mu", s.Mu != 0}, {"TargetUtil", s.TargetUtil != 0},
			{"Forecaster", s.Forecaster != ""}, {"Horizon", s.Horizon != 0},
			{"Alpha", s.Alpha != 0}, {"Beta", s.Beta != 0}}
	case PolicyPredictive:
		if s.Mu <= 0 {
			return fmt.Errorf("autoscale: predictive spec needs a positive Mu, got %v", s.Mu)
		}
		if s.TargetUtil <= 0 || s.TargetUtil >= 1 {
			return fmt.Errorf("autoscale: predictive spec needs TargetUtil in (0,1), got %v", s.TargetUtil)
		}
		if _, err := s.forecaster(); err != nil {
			return err
		}
		unread = []field{{"UpThreshold", s.UpThreshold != 0}, {"DownThreshold", s.DownThreshold != 0},
			{"Cooldown", s.Cooldown != 0}, {"Step", s.Step != 0}}
	}
	for _, f := range unread {
		if f.set {
			return fmt.Errorf("autoscale: %s spec does not read %s; drop it", s.Policy, f.name)
		}
	}
	return nil
}
