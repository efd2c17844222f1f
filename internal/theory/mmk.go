// Package theory implements the paper's analytic contribution: closed-form
// queueing results (M/M/1, M/M/c via Erlang C, Whitt's conditional-wait
// approximation, the Allen–Cunneen G/G/c approximation) and, on top of
// them, the edge performance-inversion predicates of
// Lemmas 3.1–3.3, the cutoff-utilization corollaries 3.1.1–3.1.3 and
// 3.2.1, and the capacity-provisioning rules of §5.
//
// Conventions: utilization ρ ∈ [0,1); service rate μ in requests/second;
// all returned delays are in seconds. Functions return math.Inf(1) for
// saturated systems (ρ ≥ 1) rather than panicking, because parameter
// sweeps routinely cross saturation.
package theory

import (
	"fmt"
	"math"
)

// MM1Wait returns the expected queueing delay (excluding service) of an
// M/M/1 queue: Wq = ρ / (μ (1 − ρ)).
func MM1Wait(rho, mu float64) float64 {
	if rho < 0 || mu <= 0 {
		panic(fmt.Sprintf("theory: MM1Wait rho=%v mu=%v invalid", rho, mu))
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho / (mu * (1 - rho))
}

// MM1Sojourn returns the expected total time in system of an M/M/1 queue:
// T = 1 / (μ (1 − ρ)).
func MM1Sojourn(rho, mu float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return 1 / (mu * (1 - rho))
}

// MM1QueueLen returns the expected number waiting: Lq = ρ²/(1−ρ).
func MM1QueueLen(rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho * rho / (1 - rho)
}

// MM1WaitQuantile returns the q-th quantile of the M/M/1 waiting-time
// distribution: P(W ≤ t) = 1 − ρ e^{−μ(1−ρ)t}.
func MM1WaitQuantile(rho, mu, q float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	if q <= 1-rho {
		return 0 // an atom at zero with mass 1−ρ
	}
	return -math.Log((1-q)/rho) / (mu * (1 - rho))
}

// MM1SojournQuantile returns the q-th quantile of the M/M/1 sojourn time,
// which is exponential with rate μ(1−ρ).
func MM1SojournQuantile(rho, mu, q float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return -math.Log(1-q) / (mu * (1 - rho))
}

// ErlangB returns the Erlang-B blocking probability for offered load a
// (erlangs) on c servers, computed with the standard numerically stable
// recursion B(0)=1, B(n) = aB(n−1)/(n + aB(n−1)).
func ErlangB(c int, a float64) float64 {
	if c < 0 || a < 0 {
		panic(fmt.Sprintf("theory: ErlangB c=%d a=%v invalid", c, a))
	}
	b := 1.0
	for n := 1; n <= c; n++ {
		b = a * b / (float64(n) + a*b)
	}
	return b
}

// ErlangC returns the probability that an arriving request must wait in an
// M/M/c queue with offered load a = λ/μ erlangs (ρ = a/c):
// C(c,a) = B / (1 − ρ(1 − B)).
func ErlangC(c int, a float64) float64 {
	if c <= 0 {
		panic("theory: ErlangC needs c >= 1")
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1
	}
	b := ErlangB(c, a)
	return b / (1 - rho*(1-b))
}

// MMcWait returns the expected queueing delay of an M/M/c queue:
// Wq = C(c, a) / (cμ − λ), with a = cρ and λ = cρμ.
func MMcWait(c int, rho, mu float64) float64 {
	if c <= 0 || mu <= 0 || rho < 0 {
		panic(fmt.Sprintf("theory: MMcWait c=%d rho=%v mu=%v invalid", c, rho, mu))
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	a := float64(c) * rho
	pc := ErlangC(c, a)
	return pc / (float64(c) * mu * (1 - rho))
}

// MMcSojourn returns expected wait plus service of an M/M/c queue.
func MMcSojourn(c int, rho, mu float64) float64 {
	w := MMcWait(c, rho, mu)
	if math.IsInf(w, 1) {
		return w
	}
	return w + 1/mu
}

// MMcQueueLen returns the expected number waiting in an M/M/c queue.
func MMcQueueLen(c int, rho, mu float64) float64 {
	w := MMcWait(c, rho, mu)
	if math.IsInf(w, 1) {
		return w
	}
	return w * float64(c) * rho * mu // Little's law with λ = cρμ
}

// MMcCondWait returns the exact conditional wait E[W | W>0] of an M/M/c
// queue, which is exponential with rate cμ(1−ρ): E = 1/(cμ(1−ρ)).
func MMcCondWait(c int, rho, mu float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return 1 / (float64(c) * mu * (1 - rho))
}

// WhittCondWait returns the conditional expected waiting time used by the
// paper (Equation 6, attributed to Whitt 1992): E[w | w>0] =
// √2 / ((1−ρ) √k), expressed in units of the mean service time and then
// converted to seconds by dividing by μ. The approximation is accurate in
// the heavy-traffic regime the paper targets.
func WhittCondWait(k int, rho, mu float64) float64 {
	if k <= 0 || mu <= 0 {
		panic(fmt.Sprintf("theory: WhittCondWait k=%d mu=%v invalid", k, mu))
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return math.Sqrt2 / ((1 - rho) * math.Sqrt(float64(k)) * mu)
}

// MD1Wait returns the expected queueing delay of an M/D/1 queue (exact,
// Pollaczek–Khinchine with SCV 0): Wq = ρ / (2μ(1−ρ)).
func MD1Wait(rho, mu float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho / (2 * mu * (1 - rho))
}

// PollaczekKhinchineWait returns the exact M/G/1 queueing delay for a
// service distribution with SCV cb2: Wq = ρ(1+cb²) / (2μ(1−ρ)).
func PollaczekKhinchineWait(rho, mu, cb2 float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho * (1 + cb2) / (2 * mu * (1 - rho))
}
