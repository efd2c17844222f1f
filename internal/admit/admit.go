// Package admit implements per-tier admission control: policies that
// decide, at a request's arrival instant at a tier, whether it may
// enter at all. Production edge clusters shed load before they melt —
// a rejected request is turned away immediately (no queueing, no
// service, no spill) and is priced separately by the cost overlay's
// lost-request penalty.
//
// Policies are declarative: describe one with a Spec and construct it
// with New, mirroring the lb.New / autoscale.New / forecast.New
// registries. Three policies ship:
//
//   - token-bucket: a classic rate limiter. Each bucket holds Burst
//     tokens, refills at Rate tokens per second, and admission costs
//     one token. Buckets are per home site on home-routed tiers (the
//     rate is per-site and the state site-local, which keeps sharded
//     replay deterministic) and tier-wide elsewhere.
//   - queue-length: reject while the tier's pressure signal — waiting
//     requests at the request's home station, or at the least-loaded
//     station of a pooled tier — is at or beyond Threshold.
//   - priority: class-aware shedding. While the tier is under pressure
//     (waiting >= Threshold), requests whose SLO class ranks at or
//     beyond Cutoff are rejected; higher-ranked classes pass. Earlier
//     class rules outrank later ones and unclassified traffic ranks
//     last, so Cutoff = 1 protects only the first declared class.
//
// Every policy is a deterministic function of the arrival sequence it
// observes — no randomness — so admission-enabled replays stay
// byte-identical across shard counts and broadcast replays.
package admit

import (
	"fmt"
	"math"
)

// Policy names understood by New.
const (
	TokenBucket = "token-bucket"
	QueueLength = "queue-length"
	Priority    = "priority"
)

// Policies lists the registered policy names.
func Policies() []string { return []string{TokenBucket, QueueLength, Priority} }

// Known reports whether name is a registered policy.
func Known(name string) bool {
	for _, p := range Policies() {
		if p == name {
			return true
		}
	}
	return false
}

// Spec declares an admission policy: the policy name plus the union of
// all policies' parameters. The zero Spec is invalid; Validate names
// what is wrong. cluster.Tier carries one, and the JSON topology codec
// decodes a tier's "admission" block straight into one.
type Spec struct {
	// Policy selects the admission rule (see Policies).
	Policy string `json:"policy"`
	// Rate is the token-bucket refill rate in tokens (admissions) per
	// second per bucket — per home site on a home-routed tier, for the
	// whole tier elsewhere.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket capacity; buckets start full. 0 defaults
	// to max(1, Rate): one second of refill, never below one admission.
	Burst float64 `json:"burst,omitempty"`
	// Threshold is the pressure bound for queue-length and priority:
	// the policy engages while the observed waiting count is at or
	// beyond it.
	Threshold int `json:"threshold,omitempty"`
	// Cutoff is the priority policy's first rejected class rank: under
	// pressure, requests with class rank >= Cutoff are turned away.
	Cutoff int `json:"cutoff,omitempty"`
}

// Label names the spec for result tables.
func (s Spec) Label() string { return s.Policy }

// badRate/badBurst report the NaN/Inf/sign holes a plain threshold
// comparison misses: every comparison against NaN is false, so "x <= 0"
// does not reject it.
func badRate(x float64) bool  { return math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 }
func badBurst(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) || x < 0 }

// Validate checks the spec: a registered policy and positive, finite
// parameters for it. NaN and ±Inf are rejected explicitly — ordered
// comparisons are false for NaN, so without these checks a NaN rate
// would silently construct a bucket that never refills.
func (s Spec) Validate() error {
	switch s.Policy {
	case TokenBucket:
		if badRate(s.Rate) {
			return fmt.Errorf("admit: token-bucket needs a positive finite Rate, got %v", s.Rate)
		}
		if badBurst(s.Burst) {
			return fmt.Errorf("admit: token-bucket Burst must be finite and >= 0, got %v", s.Burst)
		}
	case QueueLength:
		if s.Threshold < 1 {
			return fmt.Errorf("admit: queue-length needs Threshold >= 1, got %d", s.Threshold)
		}
	case Priority:
		if s.Threshold < 1 {
			return fmt.Errorf("admit: priority needs Threshold >= 1, got %d", s.Threshold)
		}
		if s.Cutoff < 0 {
			return fmt.Errorf("admit: priority Cutoff must be >= 0, got %d", s.Cutoff)
		}
	case "":
		return fmt.Errorf("admit: no policy (want one of %v)", Policies())
	default:
		return fmt.Errorf("admit: unknown policy %q (want one of %v)", s.Policy, Policies())
	}
	return nil
}

// Policy decides admission for one request at its tier-entry instant.
// The caller supplies the simulation clock, the bucket key (home site
// for home-routed tiers, 0 for pooled tiers), the tier's pressure
// signal (waiting requests at the candidate station), and the
// request's SLO class rank. Implementations must be deterministic
// functions of their observation sequence.
type Policy interface {
	Admit(now float64, bucket, waiting, class int) bool
}

// New constructs the spec's policy over the given number of buckets
// (sub-limiters): one per home site on a home-routed tier, one for a
// pooled tier. The spec is validated first.
func New(spec Spec, buckets int) (Policy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if buckets < 1 {
		return nil, fmt.Errorf("admit: policy needs at least one bucket, got %d", buckets)
	}
	switch spec.Policy {
	case TokenBucket:
		burst := spec.Burst
		if burst == 0 {
			burst = math.Max(1, spec.Rate)
		}
		tb := &tokenBucket{rate: spec.Rate, burst: burst,
			tokens: make([]float64, buckets), last: make([]float64, buckets)}
		for i := range tb.tokens {
			tb.tokens[i] = burst
		}
		return tb, nil
	case QueueLength:
		return queueLength{threshold: spec.Threshold}, nil
	case Priority:
		return priority{threshold: spec.Threshold, cutoff: spec.Cutoff}, nil
	}
	panic("unreachable: Validate accepted an unregistered policy")
}

// tokenBucket admits while its bucket holds a token: the bucket refills
// continuously at rate tokens/second up to burst and each admission
// spends one token. Refill is computed lazily from the previous
// observation instant, so the state is a pure function of the bucket's
// arrival-time sequence.
type tokenBucket struct {
	rate, burst float64
	tokens      []float64
	last        []float64
}

func (p *tokenBucket) Admit(now float64, bucket, waiting, class int) bool {
	t := p.tokens[bucket] + (now-p.last[bucket])*p.rate
	if t > p.burst {
		t = p.burst
	}
	p.last[bucket] = now
	if t < 1 {
		p.tokens[bucket] = t
		return false
	}
	p.tokens[bucket] = t - 1
	return true
}

// queueLength admits while the pressure signal is below the threshold.
type queueLength struct{ threshold int }

func (p queueLength) Admit(now float64, bucket, waiting, class int) bool {
	return waiting < p.threshold
}

// priority admits freely below the pressure threshold; at or beyond it,
// only classes ranked before the cutoff pass.
type priority struct{ threshold, cutoff int }

func (p priority) Admit(now float64, bucket, waiting, class int) bool {
	return waiting < p.threshold || class < p.cutoff
}
