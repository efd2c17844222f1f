// Command figures regenerates every table and figure of the paper's
// evaluation section from the edgebench simulator and analytic library.
//
// Usage:
//
//	figures [-fig all|2|3|4|5|6|7|8|9|10|three-tier|scaler|grid|validation|capacity|tail|cost|admission]
//	        [-duration seconds] [-seed n] [-csv dir]
//
// Output is an ASCII rendering of each figure plus the underlying data
// table; with -csv the raw series are also written as CSV files.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/admit"
	"repro/internal/app"
	"repro/internal/asciiplot"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/econ"
	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (2..10, three-tier, scaler, grid, validation, capacity, tail, cost, admission, all)")
	duration := flag.Float64("duration", 600, "simulated seconds per sweep point")
	seed := flag.Int64("seed", 42, "random seed")
	csvDir := flag.String("csv", "", "directory to write CSV series into (optional)")
	flag.Parse()
	for _, err := range []error{checkFig(*fig), checkNumbers(*duration)} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			die("%v", err)
		}
	}

	a := figArgs{duration: *duration, seed: *seed, csvDir: *csvDir}
	for _, f := range figures {
		if *fig == "all" || *fig == f.name {
			fmt.Printf("\n================ Figure/Table %s ================\n", f.name)
			f.run(a)
		}
	}
}

// die reports a run that failed after its flags were accepted: one
// line and exit status 1.
func die(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(1)
}

// writeCSV writes one figure's CSV file into dir when -csv named one. A
// file that cannot be created, written or closed exits 1 naming it.
func writeCSV(dir, name string, write func(io.Writer) error) {
	if dir == "" {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		die("-csv: %v", err) // names the file
	}
	if err := errors.Join(write(f), f.Close()); err != nil {
		die("-csv %s: %v", f.Name(), err)
	}
}

// figArgs carries the flags every figure renderer may read.
type figArgs struct {
	duration float64
	seed     int64
	csvDir   string
}

// figures lists every -fig name in the order -fig all renders them.
var figures = []struct {
	name string
	run  func(figArgs)
}{
	{"2", func(a figArgs) { fig2(a.seed) }},
	{"3", func(a figArgs) { fig345("3", "typical-25ms", experiments.Mean, a.duration, a.seed, a.csvDir) }},
	{"4", func(a figArgs) { fig345("4", "distant-54ms", experiments.Mean, a.duration, a.seed, a.csvDir) }},
	{"5", func(a figArgs) { fig345("5", "distant-54ms", experiments.P95, a.duration, a.seed, a.csvDir) }},
	{"6", func(a figArgs) { fig6(a.duration, a.seed) }},
	{"7", func(a figArgs) { fig7(a.duration, a.seed) }},
	{"8", func(a figArgs) { fig8(a.seed, a.csvDir) }},
	{"9", func(a figArgs) { fig910(a.seed, true) }},
	{"10", func(a figArgs) { fig910(a.seed, false) }},
	{"three-tier", func(a figArgs) { threeTier(a.duration, a.seed, a.csvDir) }},
	{"scaler", func(a figArgs) { scalerFrontier(a.duration, a.seed, a.csvDir) }},
	{"grid", func(a figArgs) { gridSurface(a.duration, a.seed, a.csvDir) }},
	{"validation", func(a figArgs) { validation(a.duration, a.seed) }},
	{"capacity", func(figArgs) { capacity() }},
	{"tail", func(figArgs) { tailAnalytic() }},
	{"cost", func(figArgs) { cost() }},
	{"admission", func(a figArgs) { admissionCost(a.duration, a.seed, a.csvDir) }},
}

// checkFig rejects a -fig value that names no figure, listing the
// valid names.
func checkFig(name string) error {
	names := []string{"all"}
	for _, f := range figures {
		names = append(names, f.name)
	}
	if slices.Contains(names, name) {
		return nil
	}
	return fmt.Errorf("unknown -fig %q (want one of %s)", name, strings.Join(names, ", "))
}

// checkNumbers rejects a -duration that is not a positive, finite
// number of seconds.
func checkNumbers(duration float64) error {
	if !(duration > 0) || math.IsInf(duration, 1) {
		return fmt.Errorf("-duration %v must be a positive, finite number of seconds", duration)
	}
	return nil
}

// admissionCost renders the rejection-vs-cost trade: one overloaded
// workload broadcast through the same edge hierarchy under
// progressively tighter entry admission, with rejected traffic priced
// by the econ penalty. Loose admission spends on queueing misery;
// tight admission converts it into explicit rejection cost — the view
// shows the p95 relief each rejected kilorequest buys.
func admissionCost(duration float64, seed int64, csvDir string) {
	const sites, offered = 5, 13
	pricing := econ.DefaultPricing()
	pricing.RejectPenalty = 0.0005
	fmt.Printf("Pricing: cloud $%.3f/server-hour, edge $%.3f/server-hour, rejection $%.4f/request\n",
		pricing.CloudPerServerHour, pricing.EdgePerServerHour, pricing.RejectPenalty)
	fmt.Printf("Workload: %d sites offering %g req/s each into 1 edge server/site "+
		"(spill to a pooled cloud at threshold 3)\n\n", sites, float64(offered))

	cloudPath := netem.CloudTypical
	topology := func(rate float64) cluster.Topology {
		// A reactive scaler on the edge makes shed traffic save real
		// capacity dollars, so the two cost components actually trade.
		scaler := autoscale.DefaultReactiveSpec(1, 4)
		topo := cluster.Topology{
			Name: "admit-frontier",
			Tiers: []cluster.Tier{
				{Name: "edge", Sites: sites, ServersPerSite: 1, Path: netem.EdgePath,
					Scaler: &scaler},
				{Name: "cloud", Sites: 1, ServersPerSite: sites, Path: cloudPath,
					Dispatch: cluster.CentralQueueDispatch},
			},
			Spills: []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: 3,
				DetourPath: &cloudPath}},
		}
		if rate > 0 {
			topo.Tiers[0].Admission = &admit.Spec{Policy: admit.TokenBucket, Rate: rate}
		}
		return topo
	}
	rates := []float64{0, 14, 12, 11, 10, 9, 8, 7} // 0 = admission off
	variants := make([]cluster.Variant, len(rates))
	for i, r := range rates {
		label := "off"
		if r > 0 {
			label = fmt.Sprintf("rate=%g", r)
		}
		variants[i] = cluster.Variant{Label: label, Topology: topology(r),
			Opts: cluster.Options{Seed: seed + 1, Pricing: &pricing}}
	}
	spec := cluster.GenSpec{Sites: sites, Duration: duration, PerSiteRate: offered, Seed: seed}
	if err := spec.Validate(); err != nil {
		die("admission: %v", err)
	}
	results, err := cluster.RunBroadcast(cluster.Stream(spec), variants, 0)
	if err != nil {
		die("admission: %v", err)
	}

	series := []asciiplot.Series{{Name: "total $ (capacity + penalty)"}, {Name: "capacity $"}}
	var rows [][]interface{}
	for i, res := range results {
		var rejCost float64
		for _, tier := range res.Tiers {
			rejCost += tier.RejectionCost
		}
		rejPct := 100 * float64(res.Rejected) / float64(res.Offered)
		rows = append(rows, []interface{}{
			variants[i].Label, int(res.Rejected), fmt.Sprintf("%.1f%%", rejPct),
			res.Result.P95Latency() * 1000,
			res.TotalCost - rejCost, rejCost, res.TotalCost,
		})
		// Chart against admitted fraction so "off" (100% admitted)
		// anchors the right edge and tightening admission walks left.
		x := 100 - rejPct
		series[0].X = append(series[0].X, x)
		series[0].Y = append(series[0].Y, res.TotalCost)
		series[1].X = append(series[1].X, x)
		series[1].Y = append(series[1].Y, res.TotalCost-rejCost)
	}
	asciiplot.Table(os.Stdout,
		[]string{"admission", "rejected", "reject %", "p95 (ms)", "capacity $", "penalty $", "total $"}, rows)
	fmt.Println()
	asciiplot.LineChart(os.Stdout, "Admission: total cost ($) vs admitted traffic (%)", series, 72, 16)

	writeCSV(csvDir, "admission.csv", func(w io.Writer) error { return asciiplot.WriteSeriesCSV(w, series) })
}

// tailAnalytic prints the analytic tail-inversion extension: exact M/M
// cutoff utilizations for the mean and several quantiles across the
// paper's cloud distances. The paper derives only the mean comparison
// analytically (§4.3); this closes that gap.
func tailAnalytic() {
	mu := app.SaturationRate
	var rows [][]interface{}
	for _, sc := range netem.PaperScenarios() {
		d := theory.Deployment{
			K: 5, ServersPerSite: 1, Mu: mu,
			EdgeRTT: sc.Edge.MeanRTT(), CloudRTT: sc.Cloud.MeanRTT(),
		}
		rows = append(rows, []interface{}{
			sc.Name,
			d.CutoffUtilizationExactMM() * 100,
			d.TailCutoffUtilization(0.90) * 100,
			d.TailCutoffUtilization(0.95) * 100,
			d.TailCutoffUtilization(0.99) * 100,
		})
	}
	fmt.Println("Analytic inversion cutoffs under the exact M/M model (% utilization).")
	fmt.Println("Tails invert before means at every distance — Figure 5's insight in closed form.")
	asciiplot.Table(os.Stdout,
		[]string{"cloud", "mean ρ* (%)", "p90 ρ* (%)", "p95 ρ* (%)", "p99 ρ* (%)"}, rows)
	fmt.Println("\nNote: M/M variability (SCV 1) places these cutoffs well below the")
	fmt.Println("calibrated simulator's Figure 7 values; the ordering and monotone")
	fmt.Println("trend with cloud RTT are the reproduced structure.")
}

// cost prints the §7 economics extension: what inversion-free edge
// capacity costs relative to the cloud.
func cost() {
	pricing := econ.DefaultPricing()
	fmt.Printf("Pricing: cloud $%.3f/server-hour, edge $%.3f/server-hour (1.5x premium)\n\n",
		pricing.CloudPerServerHour, pricing.EdgePerServerHour)
	var rows [][]interface{}
	for _, lambda := range []float64{50, 100, 500} {
		for _, k := range []int{5, 10, 25} {
			c := econ.Compare(lambda, k, app.SaturationRate, 0.024, pricing)
			rows = append(rows, []interface{}{
				lambda, k, c.CloudServers, c.EdgeServersPeak, c.EdgeServersNoInversion,
				fmt.Sprintf("%.2fx", c.PeakCostRatio),
				fmt.Sprintf("%.2fx", c.NoInversionCostRatio),
				fmt.Sprintf("%.3g", econ.BreakEvenEdgePremium(lambda, k, app.SaturationRate, 0.024)),
			})
		}
	}
	asciiplot.Table(os.Stdout,
		[]string{"λ (req/s)", "k", "cloud srv", "edge peak srv", "edge no-inv srv",
			"peak cost", "no-inv cost", "break-even premium"}, rows)
	fmt.Println("\nbreak-even premium: the edge/cloud price multiple at which the")
	fmt.Println("inversion-free edge costs the same as the cloud (values < 1 mean the")
	fmt.Println("edge must be cheaper per server-hour than the cloud to break even).")
}

// fig2 renders the taxi-trace per-cell load skew (paper Figure 2).
func fig2(seed int64) {
	spec := trace.DefaultTaxiSpec()
	spec.Seed = seed
	loads := trace.TaxiCellLoads(spec)
	boxes := trace.CellBoxPlots(loads)
	// Show the 12 busiest cells plus the 4 quietest, like the paper's
	// long-tail box plot.
	var strip []asciiplot.Box
	show := boxes
	if len(show) > 16 {
		show = append(append([]stats.BoxPlot{}, boxes[:12]...), boxes[len(boxes)-4:]...)
	}
	for _, b := range show {
		strip = append(strip, asciiplot.Box{Label: b.Label, Min: b.Min, Q1: b.Q1, Med: b.Median, Q3: b.Q3, Max: b.Max})
	}
	asciiplot.BoxStrips(os.Stdout, "Fig 2: per-cell vehicle load (busiest 12 + quietest 4 cells)", strip, 60)
	mean, max := loadSkew(loads)
	fmt.Printf("spatial skew: busiest/mean per step: mean=%.2f max=%.2f (uniform would be 1.0)\n", mean, max)
}

func loadSkew(loads []trace.CellLoad) (meanSkew, maxSkew float64) {
	if len(loads) == 0 || len(loads[0].Counts) == 0 {
		return 0, 0
	}
	steps := len(loads[0].Counts)
	var sum float64
	for t := 0; t < steps; t++ {
		var tot, max float64
		for _, l := range loads {
			c := float64(l.Counts[t])
			tot += c
			if c > max {
				max = c
			}
		}
		mean := tot / float64(len(loads))
		if mean <= 0 {
			continue
		}
		s := max / mean
		sum += s
		if s > maxSkew {
			maxSkew = s
		}
	}
	return sum / float64(steps), maxSkew
}

// fig345 renders the rate-sweep latency comparisons (Figures 3, 4, 5).
func fig345(name, scenario string, metric experiments.Metric, duration float64, seed int64, csvDir string) {
	res, err := experiments.RunFig3(scenario, duration, seed)
	if err != nil {
		die("%v", err)
	}
	pick := func(run *cluster.TopologyResult) float64 {
		if metric == experiments.P95 {
			return run.EndToEnd.P95() * 1000
		}
		return run.EndToEnd.Mean() * 1000
	}
	series := []asciiplot.Series{
		{Name: "edge, 1 server"}, {Name: "edge, 2 servers"},
		{Name: "cloud, 5 servers"}, {Name: "cloud, 10 servers"},
	}
	sweeps := []experiments.TopologySweepResult{res.OneServer, res.TwoServer}
	for s, sweep := range sweeps {
		for i, rate := range sweep.Config.Rates {
			series[s].X = append(series[s].X, rate)
			series[s].Y = append(series[s].Y, pick(sweep.Points[i]))
			series[s+2].X = append(series[s+2].X, rate)
			series[s+2].Y = append(series[s+2].Y, pick(sweep.Rivals[0][i]))
		}
	}
	title := fmt.Sprintf("Fig %s: %s response time (ms) vs req/server/s — %s (Δn=%.0fms)",
		name, metric, scenario, res.Scenario.DeltaN()*1000)
	asciiplot.LineChart(os.Stdout, title, series, 72, 20)

	var rows [][]interface{}
	for i, rate := range res.OneServer.Config.Rates {
		rows = append(rows, []interface{}{
			rate, pick(res.OneServer.Points[i]), pick(res.TwoServer.Points[i]),
			pick(res.OneServer.Rivals[0][i]), pick(res.TwoServer.Rivals[0][i]),
		})
	}
	asciiplot.Table(os.Stdout,
		[]string{"req/s/srv", "edge1 (ms)", "edge2 (ms)", "cloud5 (ms)", "cloud10 (ms)"}, rows)

	for _, m := range []experiments.Metric{experiments.Mean, experiments.P95} {
		for i, sweep := range sweeps {
			if rate, _, ok := sweep.Crossover(m, 0); ok {
				util := rate / sweep.Config.Model.Mu()
				fmt.Printf("crossover (%s, %d srv/site): %.1f req/s (util %.0f%%)\n", m, i+1, rate, util*100)
			} else {
				fmt.Printf("crossover (%s, %d srv/site): none below saturation\n", m, i+1)
			}
		}
	}

	writeCSV(csvDir, "fig"+name+".csv", func(w io.Writer) error { return asciiplot.WriteSeriesCSV(w, series) })
}

// threeTier renders the new hierarchy figure: four capacity-matched
// deployment shapes (pure edge, pure cloud, two-tier overflow, and the
// edge→regional→cloud chain) across the paper's rate axis.
func threeTier(duration float64, seed int64, csvDir string) {
	res, err := experiments.RunFigThreeTier(duration, seed)
	if err != nil {
		die("%v", err)
	}
	series := []asciiplot.Series{
		{Name: "edge (5x2)"}, {Name: "cloud (10)"},
		{Name: "edge+overflow (5+5)"}, {Name: "edge+regional+cloud (5+2+3)"},
	}
	shapes := append([][]*cluster.TopologyResult{res.Points}, res.Rivals...)
	for k, runs := range shapes {
		for i, run := range runs {
			series[k].X = append(series[k].X, res.Config.Rates[i])
			series[k].Y = append(series[k].Y, run.EndToEnd.Mean()*1000)
		}
	}
	asciiplot.LineChart(os.Stdout,
		"Three-tier hierarchy: mean response time (ms) vs req/server/s, 10 servers per shape",
		series, 72, 20)

	var rows [][]interface{}
	for i, p := range res.Points {
		cloud, over, chain := res.Rivals[0][i], res.Rivals[1][i], res.Rivals[2][i]
		// Escalation shares: fraction of the replayed requests leaving
		// their home site at a tier.
		spillPct := func(spilled uint64) float64 { return 100 * (float64(spilled) / float64(p.Offered)) }
		rows = append(rows, []interface{}{
			res.Config.Rates[i],
			p.EndToEnd.Mean() * 1000, cloud.EndToEnd.Mean() * 1000, over.EndToEnd.Mean() * 1000, chain.EndToEnd.Mean() * 1000,
			p.EndToEnd.P95() * 1000, chain.EndToEnd.P95() * 1000,
			spillPct(over.Tiers[0].Spilled), spillPct(chain.Tiers[0].Spilled), spillPct(chain.Tiers[1].Spilled),
		})
	}
	asciiplot.Table(os.Stdout, []string{
		"req/s/srv", "edge", "cloud", "overflow", "chain",
		"edge p95", "chain p95", "ovfl %", "chain->reg %", "reg->cld %",
	}, rows)

	writeCSV(csvDir, "figthreetier.csv", func(w io.Writer) error { return asciiplot.WriteSeriesCSV(w, series) })
}

// scalerFrontier renders the latency-vs-cost frontier of the scaler
// policy comparison: every policy (reactive thresholds, predictive ×
// forecaster) drives the same NHPP diurnal workload through the same
// edge+cloud deployment, and each lands at one (cost, latency) point.
// Pareto-optimal policies — no rival is both cheaper and faster — are
// marked; the rest pay more, wait longer, or both.
func scalerFrontier(duration float64, seed int64, csvDir string) {
	res, err := experiments.RunScalerComparison(experiments.ScalerComparisonConfig{
		Workload: experiments.ScalerWorkloadNHPP,
		Duration: duration,
		Seed:     seed,
	})
	if err != nil {
		die("%v", err)
	}
	runs := res.Runs
	sort.Slice(runs, func(i, j int) bool { return runs[i].CostPerRequest < runs[j].CostPerRequest })
	// Weakly dominated = some rival is no worse on both axes and
	// strictly better on at least one.
	pareto := func(i int) bool {
		for j := range runs {
			if j == i {
				continue
			}
			if runs[j].CostPerRequest <= runs[i].CostPerRequest &&
				runs[j].EndToEnd.Mean() <= runs[i].EndToEnd.Mean() &&
				(runs[j].CostPerRequest < runs[i].CostPerRequest ||
					runs[j].EndToEnd.Mean() < runs[i].EndToEnd.Mean()) {
				return false
			}
		}
		return true
	}

	frontier := asciiplot.Series{Name: "policies (cost asc)"}
	var out [][]interface{}
	for i, r := range runs {
		edge := r.Tiers[0]
		mark := ""
		if pareto(i) {
			mark = "*"
		}
		frontier.X = append(frontier.X, r.CostPerRequest*1000)
		frontier.Y = append(frontier.Y, r.EndToEnd.Mean()*1000)
		out = append(out, []interface{}{
			r.Label + mark, r.EndToEnd.Mean() * 1000, r.EndToEnd.P95() * 1000,
			edge.PeakServers, edge.ScaleUps + edge.ScaleDowns,
			edge.ServerSeconds, r.TotalCost, r.CostPerRequest * 1000,
		})
	}
	asciiplot.LineChart(os.Stdout,
		"Scaler frontier: mean latency (ms) vs cost per 1000 requests ($), NHPP diurnal workload",
		[]asciiplot.Series{frontier}, 72, 18)
	asciiplot.Table(os.Stdout, []string{
		"policy", "mean (ms)", "p95 (ms)", "peak srv", "actions",
		"server-sec", "total $", "$/kreq",
	}, out)
	fmt.Println("* = on the latency-cost frontier (no policy is both cheaper and faster)")

	writeCSV(csvDir, "figscaler.csv", func(w io.Writer) error {
		return asciiplot.WriteSeriesCSV(w, []asciiplot.Series{frontier})
	})
}

// gridSurface renders the crossover grid: the rate × budget × depth
// surface of hierarchy-vs-pooled-cloud latency, its per-column
// inversion points, and the "which depth delays inversion longest?"
// answer per budget. One broadcast generation pass feeds every cell
// at a given rate (see experiments.RunGrid).
func gridSurface(duration float64, seed int64, csvDir string) {
	cfg := experiments.GridConfig{
		Sites:    5,
		Rates:    []float64{6, 12, 18, 21, 24},
		Budgets:  []int{10, 15},
		Depths:   []int{1, 2, 3},
		Duration: duration,
		Seed:     seed,
	}
	res, err := experiments.RunGrid(cfg)
	if err != nil {
		die("%v", err)
	}

	// Heatmap of the surface itself: hierarchy mean minus pooled mean,
	// in ms — dark cells are where the hierarchy has inverted.
	var rows []string
	var values [][]float64
	var series []asciiplot.Series
	for _, b := range cfg.Budgets {
		for _, d := range cfg.Depths {
			rows = append(rows, fmt.Sprintf("b%d d%d", b, d))
			s := asciiplot.Series{Name: fmt.Sprintf("b%d-d%d", b, d)}
			var vs []float64
			for _, rate := range cfg.Rates {
				diff := (res.Cell(rate, b, d).Mean - res.Baseline(rate, b).Mean) * 1000
				vs = append(vs, diff)
				s.X = append(s.X, rate)
				s.Y = append(s.Y, res.Cell(rate, b, d).Mean*1000)
			}
			values = append(values, vs)
			series = append(series, s)
		}
	}
	cols := make([]string, len(cfg.Rates))
	for i, r := range cfg.Rates {
		cols[i] = fmt.Sprintf("%g", r)
	}
	asciiplot.Heatmap(os.Stdout,
		"Crossover grid: hierarchy mean - pooled-cloud mean (ms) vs per-site req/s",
		rows, cols, values)

	var out [][]interface{}
	for _, c := range res.Crossovers {
		cross := "none in range"
		switch {
		case c.AtFloor:
			cross = "inverted at floor"
		case !math.IsNaN(c.Crossover):
			cross = fmt.Sprintf("%.1f req/s", c.Crossover)
		}
		cell := res.Cell(cfg.Rates[len(cfg.Rates)-1], c.Budget, c.Depth)
		out = append(out, []interface{}{
			c.Budget, c.Depth, cross, cell.Mean * 1000, cell.Spilled,
		})
	}
	asciiplot.Table(os.Stdout,
		[]string{"budget", "depth", "inversion at", "mean @max rate (ms)", "spilled"}, out)
	for _, b := range cfg.Budgets {
		if d, at, ok := res.BestDepth(b); ok {
			how := "past the swept range"
			if !math.IsInf(at, 1) {
				how = fmt.Sprintf("to %.1f req/s", at)
			}
			fmt.Printf("budget %d: depth %d delays inversion longest (%s)\n", b, d, how)
		}
	}

	writeCSV(csvDir, "figgrid.csv", func(w io.Writer) error { return asciiplot.WriteSeriesCSV(w, series) })
}

// fig6 renders the latency distributions at 10 req/server/s (Figure 6).
func fig6(duration float64, seed int64) {
	runs, err := experiments.RunFig6(duration, seed)
	if err != nil {
		die("%v", err)
	}
	var strip []asciiplot.Box
	var rows [][]interface{}
	for _, run := range runs {
		sum := run.EndToEnd.Summarize(run.Label, nil)
		b := run.EndToEnd.Box(run.Label)
		strip = append(strip, asciiplot.Box{
			Label: b.Label,
			Min:   b.Min * 1000, Q1: b.Q1 * 1000, Med: b.Median * 1000,
			Q3: b.Q3 * 1000, Max: b.UpperFence * 1000,
		})
		rows = append(rows, []interface{}{
			run.Label, b.Mean * 1000, b.Median * 1000,
			sum.Quantile(0.95) * 1000, sum.Quantile(0.99) * 1000, sum.CoV,
		})
	}
	asciiplot.BoxStrips(os.Stdout, "Fig 6: response-time distribution (ms) at 10 req/server/s, distant cloud", strip, 60)
	asciiplot.Table(os.Stdout, []string{"scenario", "mean", "median", "p95", "p99", "CoV"}, rows)
}

// fig7 renders cutoff utilizations against cloud RTT (Figure 7).
func fig7(duration float64, seed int64) {
	points, err := experiments.RunFig7(duration, seed)
	if err != nil {
		die("%v", err)
	}
	var rows [][]interface{}
	for _, p := range points {
		meanPct := p.MeanCutoff * 100
		p95Pct := p.P95Cutoff * 100
		bar := func(pct float64) string {
			n := int(pct / 2)
			if n < 0 {
				n = 0
			}
			return strings.Repeat("#", n)
		}
		fmt.Printf("%-24s mean %5.1f%% |%s\n", p.Scenario, meanPct, bar(meanPct))
		fmt.Printf("%-24s p95  %5.1f%% |%s\n", "", p95Pct, bar(p95Pct))
		rows = append(rows, []interface{}{p.Scenario, p.CloudRTTms, meanPct, p95Pct})
	}
	asciiplot.Table(os.Stdout, []string{"cloud", "RTT (ms)", "mean cutoff (%)", "p95 cutoff (%)"}, rows)
}

// fig8 renders the synthetic Azure per-site workload (Figure 8).
func fig8(seed int64, csvDir string) {
	spec := trace.DefaultAzureSpec()
	spec.Seed = seed
	series := trace.GenerateAzure(spec)
	var plot []asciiplot.Series
	for i, s := range series {
		ps := asciiplot.Series{Name: fmt.Sprintf("Edge %d", i+1)}
		for b, c := range s.Counts {
			ps.X = append(ps.X, float64(b+1))
			ps.Y = append(ps.Y, c)
		}
		plot = append(plot, ps)
	}
	asciiplot.LineChart(os.Stdout, "Fig 8: per-site requests/minute (synthetic Azure trace)", plot, 72, 18)
	meanSkew, maxSkew := trace.SkewStats(series)
	fmt.Printf("cross-site skew (busiest/mean): mean=%.2f max=%.2f\n", meanSkew, maxSkew)
	writeCSV(csvDir, "fig8.csv", func(w io.Writer) error { return trace.WriteSiteSeriesCSV(w, series) })
}

// fig910 renders the Azure replay timeline (Figure 9) or per-site box
// plots (Figure 10).
func fig910(seed int64, timeline bool) {
	spec := trace.DefaultAzureSpec()
	spec.Seed = seed
	res, err := experiments.RunAzureReplay(spec, seed)
	if err != nil {
		die("%v", err)
	}
	if timeline {
		var edge, cloud asciiplot.Series
		edge.Name, cloud.Name = "Edge servers", "Cloud servers"
		edgeTL, cloudTL := res.EdgeResult.Timeline, res.CloudResult.Timeline
		for i := range min(edgeTL.NumBins(), cloudTL.NumBins()) {
			t := edgeTL.BinTime(i) / 60
			edge.X = append(edge.X, t)
			edge.Y = append(edge.Y, edgeTL.BinMean(i)*1000)
			cloud.X = append(cloud.X, t)
			cloud.Y = append(cloud.Y, cloudTL.BinMean(i)*1000)
		}
		asciiplot.LineChart(os.Stdout, "Fig 9: mean response time (ms) per minute, Azure trace replay (Δn≈25ms)",
			[]asciiplot.Series{edge, cloud}, 72, 18)
		fmt.Printf("overall: edge mean=%.1fms cloud mean=%.1fms; edge p95=%.1fms cloud p95=%.1fms\n",
			res.EdgeResult.MeanLatency()*1000, res.CloudResult.MeanLatency()*1000,
			res.EdgeResult.P95Latency()*1000, res.CloudResult.P95Latency()*1000)
		return
	}
	var boxes []stats.BoxPlot
	for i := range res.EdgeResult.Tiers[0].Sites {
		boxes = append(boxes, res.EdgeResult.Tiers[0].Sites[i].EndToEnd.Box(fmt.Sprintf("Edge %d", i+1)))
	}
	boxes = append(boxes, res.CloudResult.EndToEnd.Box("Cloud"))
	var strip []asciiplot.Box
	var rows [][]interface{}
	for _, b := range boxes {
		strip = append(strip, asciiplot.Box{
			Label: b.Label,
			Min:   b.Min * 1000, Q1: b.Q1 * 1000, Med: b.Median * 1000,
			Q3: b.Q3 * 1000, Max: b.UpperFence * 1000,
		})
		rows = append(rows, []interface{}{b.Label, b.N, b.Mean * 1000, b.Median * 1000, b.Q3 * 1000, b.UpperFence * 1000})
	}
	asciiplot.BoxStrips(os.Stdout, "Fig 10: per-site response time (ms) under the Azure workload", strip, 60)
	asciiplot.Table(os.Stdout, []string{"server", "n", "mean", "median", "q3", "whisker"}, rows)
}

// validation prints the §4.2 analytic-vs-measured comparison.
func validation(duration float64, seed int64) {
	rows, err := experiments.RunValidation(duration, seed)
	if err != nil {
		die("%v", err)
	}
	var out [][]interface{}
	for _, r := range rows {
		out = append(out, []interface{}{
			r.Label, r.DeltaNms, r.MeasuredRate, r.MeasuredUtil,
			r.PaperCutoff, r.ExactMMCutoff, r.CalibratedCutoff,
			fmt.Sprintf("%+.1f%%", r.RelErrCalibrated*100),
		})
	}
	asciiplot.Table(os.Stdout,
		[]string{"setup", "Δn (ms)", "meas rate", "meas ρ*", "paper ρ*", "exact-MM ρ*", "calibrated ρ*", "cal err"},
		out)
	fmt.Println("\npaper ρ* = Corollary 3.1.1 at the paper's μ convention (see EXPERIMENTS.md);")
	fmt.Println("calibrated ρ* = Allen–Cunneen crossover at the measured arrival/service SCVs.")
}

// capacity prints the §5.2 provisioning comparison.
func capacity() {
	rows := experiments.RunCapacityTable(
		[]float64{10, 50, 100, 500, 1000},
		[]int{5, 10, 50, 100},
	)
	var out [][]interface{}
	for _, r := range rows {
		out = append(out, []interface{}{
			r.Lambda, r.K, r.CloudCapacity, r.EdgeCapacity,
			fmt.Sprintf("%.3fx", r.Overhead), r.CloudServers, r.EdgeServers,
		})
	}
	asciiplot.Table(os.Stdout,
		[]string{"λ (req/s)", "k sites", "C_cloud", "C_edge", "overhead", "cloud srv", "edge srv"},
		out)
}
