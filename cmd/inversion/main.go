// Command inversion is the analytic calculator from the paper's "rules
// of thumb" (§3): given a deployment shape and network latencies it
// reports whether performance inversion occurs, the cutoff utilizations
// under several models, and a capacity plan that avoids inversion.
//
// Usage:
//
//	inversion -k 5 -m 1 -mu 13 -edge-rtt 1 -cloud-rtt 25 [-rho 0.6]
//	          [-ca2 1] [-cb2 1] [-skew "10,3,2,1,1"]
//
// RTTs are milliseconds; rates are req/s.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/asciiplot"
	"repro/internal/theory"
)

func main() {
	k := flag.Int("k", 5, "number of edge sites / cloud servers ÷ m")
	m := flag.Int("m", 1, "servers per edge site")
	mu := flag.Float64("mu", 13, "per-server service rate (req/s)")
	edgeRTT := flag.Float64("edge-rtt", 1, "edge round-trip latency (ms)")
	cloudRTT := flag.Float64("cloud-rtt", 25, "cloud round-trip latency (ms)")
	rho := flag.Float64("rho", 0.6, "operating utilization for point checks")
	ca2 := flag.Float64("ca2", 1, "squared CoV of inter-arrival times")
	cb2 := flag.Float64("cb2", 1, "squared CoV of service times")
	skew := flag.String("skew", "", "comma-separated per-site rates (req/s) for Lemma 3.3")
	headroom := flag.Float64("headroom", 1.2, "capacity-plan overprovisioning factor")
	flag.Parse()
	lambdas, err := checkFlags(*k, *m, *mu, *edgeRTT, *cloudRTT, *rho, *ca2, *cb2, *headroom, *skew)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inversion:", err)
		os.Exit(2)
	}

	dep := theory.Deployment{
		K:              *k,
		ServersPerSite: *m,
		Mu:             *mu,
		EdgeRTT:        *edgeRTT / 1000,
		CloudRTT:       *cloudRTT / 1000,
	}

	fmt.Printf("Deployment: k=%d sites × m=%d servers (cloud: %d servers), μ=%.3g req/s\n",
		dep.K, dep.ServersPerSite, dep.CloudServers(), dep.Mu)
	fmt.Printf("Network: edge=%.1fms cloud=%.1fms Δn=%.1fms\n\n",
		dep.EdgeRTT*1000, dep.CloudRTT*1000, dep.DeltaN()*1000)

	inv31, margin31 := dep.Lemma31(*rho, *rho)
	inv32, margin32 := dep.Lemma32(*rho, *rho, *ca2, *ca2/float64(dep.K), *cb2)
	rows := [][]interface{}{
		{"Lemma 3.1 (M/M, Whitt cond. wait)", verdict(inv31), margin31 * 1000},
		{"Lemma 3.2 (G/G, Allen–Cunneen)", verdict(inv32), margin32 * 1000},
	}
	asciiplot.Table(os.Stdout, []string{fmt.Sprintf("point check at ρ=%.2f", *rho), "verdict", "margin (ms)"}, rows)

	fmt.Println()
	cut := [][]interface{}{
		{"Corollary 3.1.1 (Whitt form)", dep.CutoffUtilization311()},
		{"Corollary 3.1.2 (k→∞ limit)", dep.CutoffUtilizationLimit312()},
		{"Exact M/M crossover", dep.CutoffUtilizationExactMM()},
		{"Allen–Cunneen crossover (given CoVs)", dep.CutoffUtilizationExactGG(*ca2, *ca2/float64(dep.K), *cb2)},
	}
	asciiplot.Table(os.Stdout, []string{"cutoff model", "ρ* (inversion above this)"}, cut)

	fmt.Printf("\nCorollary 3.1.3 hard cloud-RTT bound at ρ=%.2f: %.2f ms\n",
		*rho, dep.HardCloudRTTBound313(*rho, *rho)*1000)
	fmt.Printf("(a cloud closer than this beats even a 0 ms edge at that load)\n")

	if lambdas != nil {
		inv, margin := dep.Lemma33(lambdas)
		fmt.Printf("\nLemma 3.3 with skewed rates %v: %s (margin %.2f ms)\n",
			lambdas, verdict(inv), margin*1000)
		var total float64
		for _, l := range lambdas {
			total += l
		}
		plan := theory.PlanEdgeCapacity(dep.DeltaN(), dep.Mu, lambdas, dep.CloudServers(), *headroom, 64)
		fmt.Printf("capacity plan (headroom %.2fx): per-site servers %v, edge total %d vs cloud %d (feasible=%v)\n",
			*headroom, plan.PerSite, plan.TotalEdge, plan.CloudTotal, plan.Feasible)
	}
}

func verdict(inverted bool) string {
	if inverted {
		return "INVERSION (cloud wins)"
	}
	return "edge wins"
}

// checkFlags rejects, before anything is printed, the values the
// paper's formulas are not defined for, naming the flag, and returns the
// parsed -skew rates (nil when -skew is unset). RTTs are milliseconds.
func checkFlags(k, m int, mu, edgeRTT, cloudRTT, rho, ca2, cb2, headroom float64, skew string) ([]float64, error) {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case k < 1:
		return nil, fmt.Errorf("-k must be >= 1 (got %d)", k)
	case m < 1:
		return nil, fmt.Errorf("-m must be >= 1 (got %d)", m)
	case !(mu > 0) || !finite(mu):
		return nil, fmt.Errorf("-mu must be positive and finite (got %v)", mu)
	case !(edgeRTT >= 0) || !finite(edgeRTT):
		return nil, fmt.Errorf("-edge-rtt must be finite and >= 0 (got %v)", edgeRTT)
	case !(cloudRTT >= 0) || !finite(cloudRTT):
		return nil, fmt.Errorf("-cloud-rtt must be finite and >= 0 (got %v)", cloudRTT)
	case !(rho > 0 && rho < 1):
		return nil, fmt.Errorf("-rho must lie in (0, 1) (got %v)", rho)
	case !(ca2 >= 0) || !finite(ca2):
		return nil, fmt.Errorf("-ca2 must be finite and >= 0 (got %v)", ca2)
	case !(cb2 >= 0) || !finite(cb2):
		return nil, fmt.Errorf("-cb2 must be finite and >= 0 (got %v)", cb2)
	case !(headroom >= 1) || !finite(headroom):
		return nil, fmt.Errorf("-headroom must be finite and >= 1 (got %v)", headroom)
	case skew == "":
		return nil, nil
	}
	parts := strings.Split(skew, ",")
	if len(parts) != k {
		return nil, fmt.Errorf("-skew needs %d rates, one per site (got %d)", k, len(parts))
	}
	lambdas := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(v >= 0) || !finite(v) {
			return nil, fmt.Errorf("-skew rate %q must be a finite number >= 0", p)
		}
		lambdas[i] = v
	}
	return lambdas, nil
}
