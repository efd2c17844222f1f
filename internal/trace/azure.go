// Package trace synthesizes the two external datasets the paper depends
// on and provides CSV interchange so real datasets can be dropped in:
//
//   - Azure Public Dataset serverless traces (§4.1, Figures 8–10): the
//     paper groups serverless functions into k mutually exclusive sets,
//     maps each group to one edge site, and replays the per-minute
//     invocation counts; execution times are sampled from the dataset's
//     coarse distributions. Our generator reproduces the statistical
//     shape visible in Figure 8: five sites, per-minute request counts
//     between ~0 and ~700, strong cross-site skew, bursts, and temporal
//     drift.
//
//   - CRAWDAD San Francisco taxi mobility (Figure 2): per-hex-cell load
//     counts over time, showing heavy spatial skew. Our generator places
//     vehicles under a hotspot gravity model over a hex grid and counts
//     vehicles per cell over time.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/workload"
)

// SiteSeries is one edge site's request-rate envelope: requests per
// BinWidth-second bin.
type SiteSeries struct {
	Site     int
	BinWidth float64
	Counts   []float64
}

// Rates converts per-bin counts to rates in req/s.
func (s SiteSeries) Rates() []float64 {
	out := make([]float64, len(s.Counts))
	for i, c := range s.Counts {
		out[i] = c / s.BinWidth
	}
	return out
}

// Total returns the total request count.
func (s SiteSeries) Total() float64 {
	var t float64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// AzureSpec parameterizes the synthetic Azure-like workload.
type AzureSpec struct {
	Sites   int // number of edge sites (paper: 5)
	Minutes int // trace length in minutes (paper: ~20)
	Seed    int64
	// BaseLoad is the mean per-minute request count of a median site
	// (paper's Figure 8 spans roughly 50–700 req/min across sites).
	BaseLoad float64
	// SkewS is the Zipf exponent distributing load across sites; 0.8
	// reproduces Figure 8's spread.
	SkewS float64
	// BurstProb is the per-minute probability a site experiences a burst.
	BurstProb float64
	// BurstScale multiplies a site's rate during a burst.
	BurstScale float64
	// DriftPeriodMin > 0 rotates site ranks with this period, modeling
	// spatial dynamics ("the set of edge sites that see higher arrivals
	// changes over time", §2.2).
	DriftPeriodMin float64
}

// DefaultAzureSpec matches Figure 8's visual parameters.
func DefaultAzureSpec() AzureSpec {
	return AzureSpec{
		Sites:          5,
		Minutes:        20,
		Seed:           1,
		BaseLoad:       170,
		SkewS:          0.8,
		BurstProb:      0.15,
		BurstScale:     1.7,
		DriftPeriodMin: 12,
	}
}

// GenerateAzure produces per-site request-count series with the Azure
// trace's qualitative properties: cross-site skew, per-minute burstiness
// (negative-binomial-like overdispersion), and slow rank drift.
func GenerateAzure(spec AzureSpec) []SiteSeries {
	if spec.Sites <= 0 || spec.Minutes <= 0 {
		panic(fmt.Sprintf("trace: invalid AzureSpec %+v", spec))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	base := workload.Zipf(spec.Sites, spec.SkewS).W

	out := make([]SiteSeries, spec.Sites)
	for i := range out {
		out[i] = SiteSeries{Site: i, BinWidth: 60, Counts: make([]float64, spec.Minutes)}
	}
	for m := 0; m < spec.Minutes; m++ {
		// Rank drift: rotate the weight vector slowly.
		shift := 0
		if spec.DriftPeriodMin > 0 {
			shift = int(float64(m) / spec.DriftPeriodMin)
		}
		for s := 0; s < spec.Sites; s++ {
			w := base[(s+shift)%spec.Sites]
			mean := spec.BaseLoad * w * float64(spec.Sites)
			// Lognormal multiplicative noise gives the overdispersion
			// seen in serverless invocation counts.
			noise := math.Exp(rng.NormFloat64()*0.35 - 0.35*0.35/2)
			c := mean * noise
			if rng.Float64() < spec.BurstProb {
				c *= spec.BurstScale
			}
			if c < 0 {
				c = 0
			}
			out[s].Counts[m] = math.Round(c)
		}
	}
	return out
}

// ExecTimeDist returns the service-time distribution attached to the
// synthetic Azure workload. The Azure dataset reports coarse execution
// time distributions; the paper samples them and picks an image of
// matching size. We model execution times as a lognormal centred on the
// DNN model's mean with the given SCV (heavier-tailed than the pure
// inference model, since serverless executions mix function types).
func ExecTimeDist(mean, scv float64) dist.Dist {
	return dist.NewLogNormalMeanSCV(mean, scv)
}

// ToArrivalProcesses converts per-site series into NHPP arrival
// processes suitable for a cluster.GenSpec's Arrivals.
func ToArrivalProcesses(series []SiteSeries, cycle bool) []workload.ArrivalProcess {
	procs := make([]workload.ArrivalProcess, len(series))
	for i, s := range series {
		procs[i] = workload.NewNHPP(s.Rates(), s.BinWidth, cycle)
	}
	return procs
}

// SkewStats summarizes the spatial skew of a set of site series at each
// time bin: the ratio of the busiest site's count to the mean count.
func SkewStats(series []SiteSeries) (meanSkew, maxSkew float64) {
	if len(series) == 0 || len(series[0].Counts) == 0 {
		return 0, 0
	}
	bins := len(series[0].Counts)
	var sum float64
	for b := 0; b < bins; b++ {
		var tot, max float64
		for _, s := range series {
			c := s.Counts[b]
			tot += c
			if c > max {
				max = c
			}
		}
		mean := tot / float64(len(series))
		if mean <= 0 {
			continue
		}
		skew := max / mean
		sum += skew
		if skew > maxSkew {
			maxSkew = skew
		}
	}
	meanSkew = sum / float64(bins)
	return meanSkew, maxSkew
}
