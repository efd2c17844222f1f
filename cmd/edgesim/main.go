// Command edgesim runs one simulated edge-vs-cloud comparison from
// command-line flags, printing mean/median/p95/p99 latencies, per-site
// utilizations, and the inversion verdict. It is the general-purpose
// front end to the simulator; cmd/figures wraps the same machinery in
// the paper's specific configurations.
//
// Example (the paper's Figure 3 point at 9 req/s):
//
//	edgesim -sites 5 -servers 1 -rate 9 -scenario typical-25ms -duration 600
//
// Synthetic workloads are generated while they replay, never held in
// memory, so -duration can describe 10⁸+ requests: -gen-workers spreads
// generation across cores (bit-identical output), and -summary bounded
// keeps the latency collectors constant-size too.
//
// With -topology the run replays the workload through an arbitrary
// deployment graph instead of the fixed edge/cloud pair, printing
// per-tier latency, spill and drop metrics. The flag accepts a preset
// name, @file.json, or an inline JSON topology spec:
//
//	edgesim -topology edge-regional-cloud -rate 11
//	edgesim -topology @three-tier.json -rate 11
//	edgesim -topology '{"tiers":[{"name":"edge","sites":5,"servers":1,"rttMs":1}]}'
//
// Topology replays parallelize across sharded engines when the graph
// permits (-shards, one engine per CPU by default, bit-identical output
// for every shard count), and can consume recorded workload files
// instead of the generator:
//
//	edgesim -topology edge-regional-cloud -shards 4 -rate 11
//	edgesim -topology edge-regional-cloud -trace requests.csv
//	edgesim -topology edge-regional-cloud -azure counts.csv -sweep 6,9,12
//
// Sharded engines stream boundary records into the shared phase
// through watermarked bounded rings, so the two phases overlap and
// boundary memory stays bounded; -v explains the engine selection (in
// particular why -shards auto fell back to the single engine).
//
// -grid runs the crossover surface instead: every budget × depth
// deployment shape plus a pooled-cloud baseline replays each swept
// rate from ONE broadcast generation pass per distinct trace,
// answering "which hierarchy depth delays inversion longest?":
//
//	edgesim -grid 6,12,18,24 -grid-budgets 10,15 -grid-depths 1,2,3
//
// -cpuprofile / -memprofile write pprof profiles of the run; replay
// phases carry pprof labels (generate, phase-1, merge, phase-2) so
// `go tool pprof -tagfocus phase=merge` isolates one pipeline stage.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/admit"
	"repro/internal/app"
	"repro/internal/asciiplot"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/econ"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fail prints the error followed by the flag usage and exits with
// status 2, so bad flag values surface immediately instead of
// panicking deep inside a run.
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "edgesim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr)
	flag.Usage()
	os.Exit(2)
}

// scenarioNames lists the -scenario presets for usage messages.
func scenarioNames() []string {
	var names []string
	for _, sc := range netem.PaperScenarios() {
		names = append(names, sc.Name)
	}
	return names
}

func main() {
	sites := flag.Int("sites", 5, "number of edge sites (with -topology, must match a home-routed entry tier when set)")
	servers := flag.Int("servers", 1, "servers per edge site")
	rate := flag.Float64("rate", 8, "request rate per server (req/s)")
	scenario := flag.String("scenario", "typical-25ms", "netem scenario: nearby-13ms|typical-25ms|distant-54ms|transcontinental-80ms")
	duration := flag.Float64("duration", 600, "simulated seconds")
	warmup := flag.Float64("warmup", 60, "warmup seconds discarded from metrics")
	seed := flag.Int64("seed", 1, "random seed")
	arrivalSCV := flag.Float64("arrival-scv", cluster.DefaultArrivalSCV, "squared CoV of inter-arrival times")
	serviceSCV := flag.Float64("service-scv", app.DefaultServiceSCV, "squared CoV of service times")
	policy := flag.String("policy", "central-queue", "cloud dispatch: central-queue|round-robin|least-connections|power-of-two|random; classic paired mode only")
	slowdown := flag.Float64("edge-slowdown", 1, "edge service-time slowdown factor (resource-constrained edge); classic paired mode only")
	jockey := flag.Int("jockey", 0, "geographic LB: redirect when home-site load >= this (0=off); classic paired mode only")
	detour := flag.Float64("detour-ms", 5, "extra RTT for jockeyed requests (ms); classic paired mode only")
	skew := flag.String("skew", "", "comma-separated per-site weights (e.g. 5,2,1,1,1); classic paired mode only")
	queueCap := flag.Int("queue-cap", 0, "bound each queue at this many waiting requests (0=unbounded); classic paired mode only")
	summary := flag.String("summary", "exact", "latency summary memory model: exact (retain every sample) | bounded (streaming moments + a mergeable log-bucket sketch, quantiles within 0.78%, for huge replays)")
	autoscaleMax := flag.Int("autoscale-max", 0, "also run an autoscaled edge growing each site up to this many servers (0=off); "+
		"with -scaler, only sets that scaler's upper bound (under -topology it requires -scaler)")
	overflowAt := flag.Int("overflow-at", 0, "also run a hierarchical edge overflowing to the cloud at this site load (0=off); classic paired mode only")
	topology := flag.String("topology", "", "replay through a deployment graph instead: preset name ("+
		strings.Join(cluster.TopologyPresets(), "|")+"), @file.json, or inline JSON spec")
	scaler := flag.String("scaler", "", "attach a capacity scaler to the edge (entry) tier: "+
		"reactive | predictive[:forecaster] (forecasters: "+strings.Join(forecast.Names(), "|")+"); "+
		"bounds are servers..4x servers, or -autoscale-max when set")
	admitFlag := flag.String("admit", "", "with -topology: attach an admission policy to the entry tier: "+
		"token-bucket:rate=R[,burst=B] | queue-length:threshold=N | priority:threshold=N[,cutoff=C] "+
		"(spec files set per-tier \"admission\" blocks directly)")
	rejectPenalty := flag.Float64("reject-penalty", 0, "with -topology: dollars charged per admission-rejected "+
		"request in the cost overlay (0 = rejections are free)")
	sweep := flag.String("sweep", "", "with -topology: comma-separated req/s-per-server rates to sweep, "+
		"printing per-tier metrics and the inversion crossover vs an equal-capacity pooled cloud")
	shards := flag.Int("shards", 0, "with -topology: parallel replay engines. Unset: one per CPU when the "+
		"graph shards, the classic single engine otherwise. An explicit count forces that many sharded engines "+
		"(bit-identical output for every count) and fails when the graph cannot shard; explicit 0 forces the "+
		"classic single engine")
	traceFile := flag.String("trace", "", "with -topology: replay a request CSV (time,site,service) or a "+
		"compiled .etb binary trace (auto-detected by signature) instead of generating a workload; "+
		"with -sweep, arrival times rescale so the trace hits each swept rate")
	azureFile := flag.String("azure", "", "with -topology: replay an Azure-style per-bin count CSV "+
		"(bin,site0,site1,...) instead of generating a workload; with -sweep, rescaled like -trace")
	azureBin := flag.Float64("azure-bin", 60, "with -azure: seconds covered by each CSV bin row")
	genWorkers := flag.String("gen-workers", "serial", "parallel workers for synthetic workload generation: "+
		"serial, auto (one per CPU), or an explicit count — every setting produces the bit-identical record "+
		"sequence, so this only changes generation throughput; not with -sweep, whose points already run in parallel")
	compileOut := flag.String("compile", "", "convert the -trace/-azure input to this file and exit: a .csv "+
		"extension writes the request CSV format, anything else the .etb binary trace format; replay the "+
		"output later with -trace (the format is auto-detected)")
	verbose := flag.Bool("v", false, "explain engine selection on stderr (e.g. why -shards auto fell back to the "+
		"classic single engine, or how -gen-workers auto resolved)")
	grid := flag.String("grid", "", "run a crossover grid over these per-site req/s rates (comma-separated): "+
		"every -grid-budgets x -grid-depths deployment shape plus a pooled-cloud baseline replays each rate "+
		"from one broadcast generation pass per distinct trace")
	gridBudgets := flag.String("grid-budgets", "10,15", "with -grid: comma-separated total server budgets per shape")
	gridDepths := flag.String("grid-depths", "1,2,3", "with -grid: comma-separated hierarchy depths "+
		"(1=pure edge, 2=edge+cloud overflow, 3=edge+regional+cloud chain)")
	gridReps := flag.Int("grid-reps", 1, "with -grid: independent trace replications averaged per cell")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file; replay phases carry pprof "+
		"labels (generate, phase-1, merge, phase-2) for go tool pprof -tagfocus")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()
	set := map[string]bool{} // flags given on the command line
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	shardsSet := set["shards"]
	sh := shardChoice{set: shardsSet, n: *shards, verbose: *verbose}
	gc := genChoice{arg: *genWorkers, verbose: *verbose}
	in := workloadInput{tracePath: *traceFile, azurePath: *azureFile, azureBin: *azureBin, seed: *seed}

	sc, ok := netem.ScenarioByName(*scenario)
	if !ok {
		fail("unknown -scenario %q (want one of %v)", *scenario, scenarioNames())
	}
	var mode stats.Mode
	switch *summary {
	case "exact":
		mode = stats.Exact
	case "bounded":
		mode = stats.Bounded
	default:
		fail("unknown -summary %q (want exact|bounded)", *summary)
	}
	if *policy != cluster.CentralQueueDispatch && !lb.Known(*policy) {
		fail("unknown -policy %q (want %s or one of %v)",
			*policy, cluster.CentralQueueDispatch, lb.Policies())
	}
	model := app.NewInferenceModelWith(1/app.SaturationRate, *serviceSCV)

	if *shards < 0 {
		fail("-shards must be >= 0 (got %d)", *shards)
	}
	if shardsSet && *topology == "" {
		fail("-shards requires -topology (the classic paired mode runs one engine per deployment)")
	}
	if *admitFlag != "" && *topology == "" {
		fail("-admit requires -topology (admission policies attach to the entry tier of a deployment graph)")
	}
	if *rejectPenalty != 0 && *topology == "" {
		fail("-reject-penalty requires -topology (the cost overlay prices rejections on graph replays)")
	}
	if *rejectPenalty != 0 && *sweep != "" {
		fail("-reject-penalty cannot combine with -sweep (sweep points price capacity with default rates)")
	}
	if *traceFile != "" && *azureFile != "" {
		fail("-trace and -azure are mutually exclusive (one workload file per run)")
	}
	if in.active() && *topology == "" && *compileOut == "" {
		fail("%s requires -topology (workload files replay through deployment graphs) or -compile", in.flagName())
	}
	if *azureBin <= 0 {
		fail("-azure-bin must be positive (got %v)", *azureBin)
	}
	if _, err := (genChoice{arg: gc.arg}).resolve(1 << 20); err != nil {
		// Validate the flag's syntax up front, silently (the huge site
		// count avoids clamping chatter); the real, narrated resolution
		// happens at each generation site with its actual site count.
		fail("%v", err)
	}
	if gc.arg != "serial" && in.active() {
		fail("-gen-workers applies to synthetic generation; %s replays a recorded file", in.flagName())
	}
	if *compileOut != "" {
		if !in.active() {
			fail("-compile needs a -trace or -azure input to convert")
		}
		for flagName, set := range map[string]bool{
			"-topology": *topology != "", "-sweep": *sweep != "", "-grid": *grid != "",
			"-shards": shardsSet,
		} {
			if set {
				fail("-compile only converts the input file; drop %s", flagName)
			}
		}
		runCompile(in, *compileOut)
		return
	}
	if *grid != "" {
		if err := checkGridFlags(set); err != nil {
			fail("%v", err)
		}
		if *gridReps < 1 {
			fail("-grid-reps must be >= 1 (got %d)", *gridReps)
		}
	}
	var topo cluster.Topology
	if *topology != "" {
		var err error
		topo, err = loadTopologyWithScaler(*topology, *scaler, *admitFlag, *autoscaleMax, model.Mu())
		if err != nil {
			fail("-topology: %v", err)
		}
		if err := checkTopologyFlags(topo, *skew, *sites, set); err != nil {
			fail("%v", err)
		}
	} else if *sweep != "" {
		fail("-sweep requires -topology (the deployment graph to sweep)")
	}
	if *sweep != "" && set["gen-workers"] {
		fail("-gen-workers cannot combine with -sweep: the sweep's worker pool already runs points in parallel")
	}
	if !in.active() {
		if err := checkGenFlags(*sites, *servers, *rate, *duration, *warmup, *arrivalSCV, *serviceSCV); err != nil {
			fail("%v", err)
		}
	}

	// Profiles cover every run mode below. The deferred writers fire on
	// main's normal return; fail() exits before any replay starts.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	if *grid != "" {
		rates, err := parseRates(*grid)
		if err != nil {
			fail("-grid: %v", err)
		}
		budgets, err := parseInts(*gridBudgets)
		if err != nil {
			fail("-grid-budgets: %v", err)
		}
		depths, err := parseInts(*gridDepths)
		if err != nil {
			fail("-grid-depths: %v", err)
		}
		runGridCLI(rates, budgets, depths, *gridReps, *sites, gc,
			*duration, *warmup, *arrivalSCV, *seed, model, mode)
		return
	}

	if *topology != "" {
		if *sweep != "" {
			runTopologySweepCLI(topo, *sweep, in, sh, sc,
				*duration, *warmup, *arrivalSCV, *seed, model, mode)
		} else {
			runTopology(topo, in, sh, gc, *sites, *servers, *rate,
				*duration, *warmup, *arrivalSCV, *seed, *rejectPenalty, model, mode)
		}
		return
	}

	// Validate -scaler before the expensive paired replay so a typo'd
	// policy fails in milliseconds, not after the runs.
	var scalerSpec *autoscale.Spec
	if *scaler != "" {
		s, err := parseScalerSpec(*scaler, *servers, *autoscaleMax, model.Mu())
		if err != nil {
			fail("-scaler: %v", err)
		}
		scalerSpec = &s
	}

	spec := cluster.GenSpec{
		Sites:       *sites,
		Duration:    *duration,
		PerSiteRate: *rate * float64(*servers),
		ArrivalSCV:  *arrivalSCV,
		Model:       model,
		Seed:        *seed,
	}
	if *skew != "" {
		weights, err := parseWeights(*skew, *sites)
		if err != nil {
			fail("%v", err)
		}
		totalRate := *rate * float64(*servers) * float64(*sites)
		part := workload.NewStatic(weights)
		procs := make([]workload.ArrivalProcess, *sites)
		for i, w := range part.W {
			procs[i] = workload.NewRenewal(dist.FitSCV(1/(totalRate*w), *arrivalSCV))
		}
		spec.Arrivals = procs
	}
	if err := spec.Validate(); err != nil {
		fail("%v", err)
	}
	gw, err := gc.resolve(spec.Sites)
	if err != nil {
		fail("%v", err)
	}

	// Every deployment replays the same workload and nothing else is
	// shared, so one broadcast pass runs them all concurrently. Only
	// the baseline edge keeps per-site latency for the site table.
	variant := func(name string, seed int64, perSiteLatency bool, tiers ...cluster.Tier) cluster.Variant {
		return cluster.Variant{Label: name, Topology: cluster.Topology{Name: name, Tiers: tiers},
			Opts: cluster.Options{Warmup: *warmup, Seed: seed, Summary: mode,
				NoPerSiteLatency: !perSiteLatency}}
	}
	edgeTier := cluster.Tier{
		Name: "edge", Sites: *sites, ServersPerSite: *servers, Path: sc.Edge,
		SlowdownFactor: *slowdown, QueueCap: *queueCap,
		JockeyThreshold: *jockey, DetourRTT: *detour / 1000,
	}
	variants := []cluster.Variant{
		variant("edge", *seed+1, true, edgeTier),
		variant("cloud", *seed+2, false, cluster.CloudTier(*sites**servers, sc.Cloud, *policy)),
	}
	// The mitigation rows start from the plain edge. With -scaler set,
	// -autoscale-max only supplies the scaler's upper bound; the
	// fixed-threshold edge+autoscale row would duplicate the scaled row
	// under different hardcoded parameters.
	plainEdge := cluster.Tier{Name: "edge", Sites: *sites, ServersPerSite: *servers, Path: sc.Edge}
	autoscaled := *autoscaleMax > 0 && *scaler == ""
	if autoscaled {
		reactive := autoscale.Spec{
			Policy: autoscale.PolicyReactive, Interval: 2, Min: *servers, Max: *autoscaleMax,
			UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6,
		}
		tier := plainEdge
		tier.Scaler = &reactive
		variants = append(variants, variant("edge+autoscale", *seed+1, false, tier))
	}
	if *overflowAt > 0 {
		over := variant("edge+overflow", *seed+1, false, plainEdge, cluster.CloudTier(*sites**servers, sc.Cloud, ""))
		over.Topology.Spills = []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: *overflowAt, DetourPath: &sc.Cloud}}
		variants = append(variants, over)
	}
	if scalerSpec != nil {
		// Carry every edge-shaping flag the baseline row uses, so the
		// scaled row differs from "edge" by the controller alone.
		tier := edgeTier
		tier.Scaler = scalerSpec
		variants = append(variants, variant("edge+"+scalerSpec.Label(), *seed+1, false, tier))
	}
	runs, err := cluster.RunBroadcast(cluster.Options{GenWorkers: gw}.GenSource(spec), variants, 0)
	if err != nil {
		fail("%v", err)
	}
	edge, cloud := runs[0], runs[1]

	fmt.Printf("scenario %s: edge RTT %.1fms, cloud RTT %.1fms, Δn %.1fms\n",
		sc.Name, sc.Edge.MeanRTT()*1000, sc.Cloud.MeanRTT()*1000, sc.DeltaN()*1000)
	printWorkload(in, edge)

	rows := [][]interface{}{latencyRow("edge", &edge.Result), latencyRow("cloud", &cloud.Result)}
	next := 2
	if autoscaled {
		scaled := runs[next]
		next++
		rows = append(rows, latencyRow(scaled.Label, &scaled.Result))
		tier := scaled.Tiers[0]
		defer fmt.Printf("autoscaler: %d scale-ups, %d scale-downs, peak %d servers/site\n",
			tier.ScaleUps, tier.ScaleDowns, tier.PeakServers)
	}
	if *overflowAt > 0 {
		over := runs[next]
		next++
		// The backstop absorbs overflow; utilization reports the edge
		// investment only.
		row := over.Result
		row.Utilization = over.Tiers[0].Utilization
		rows = append(rows, latencyRow(over.Label, &row))
		spilled := over.Tiers[0].Spilled
		defer fmt.Printf("overflow: %d requests (%.1f%%) served by the cloud backstop\n",
			spilled, 100*float64(spilled)/float64(over.Offered))
	}
	if scalerSpec != nil {
		scaled := runs[next]
		rows = append(rows, latencyRow(scaled.Label, &scaled.Result))
		tier := scaled.Tiers[0]
		defer fmt.Printf("scaler[%s]: %d ups, %d downs, peak %d servers, %.0f server-sec, $%.4f total (%.4f $/kreq)\n",
			tier.ScalerPolicy, tier.ScaleUps, tier.ScaleDowns, tier.PeakServers,
			tier.ServerSeconds, tier.Cost, tier.CostPerReq*1000)
	}
	asciiplot.Table(os.Stdout, []string{"deployment", "util", "mean (ms)", "median", "p95", "p99", "max", "n"}, rows)
	if edge.Dropped > 0 {
		fmt.Printf("bounded queues dropped %d requests\n", edge.Dropped)
	}

	fmt.Println()
	var siteRows [][]interface{}
	for _, s := range edge.Tiers[0].Sites {
		siteRows = append(siteRows, []interface{}{
			fmt.Sprintf("edge-%d", s.Site), s.MeanRate,
			s.Utilization, s.EndToEnd.Mean() * 1000, s.EndToEnd.P95() * 1000, s.EndToEnd.N(),
		})
	}
	asciiplot.Table(os.Stdout, []string{"site", "req/s", "util", "mean (ms)", "p95 (ms)", "n"}, siteRows)
	if edge.Redirected > 0 {
		fmt.Printf("geographic LB redirected %d requests\n", edge.Redirected)
	}

	fmt.Println()
	switch {
	case edge.MeanLatency() > cloud.MeanLatency() && edge.P95Latency() > cloud.P95Latency():
		fmt.Println("verdict: PERFORMANCE INVERSION — the cloud wins on both mean and p95.")
	case edge.MeanLatency() > cloud.MeanLatency():
		fmt.Println("verdict: mean-latency inversion (cloud wins on mean; edge wins on p95).")
	case edge.P95Latency() > cloud.P95Latency():
		fmt.Println("verdict: tail inversion — edge wins on mean but the cloud wins on p95.")
	default:
		fmt.Println("verdict: the edge wins on both mean and p95.")
	}
}

// loadTopology resolves the -topology flag: a shipped preset name, an
// @file reference, or an inline JSON spec.
func loadTopology(arg string) (cluster.Topology, error) {
	if topo, ok := cluster.PresetTopology(arg); ok {
		return topo, nil
	}
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(strings.TrimPrefix(arg, "@"))
		if err != nil {
			return cluster.Topology{}, err
		}
		return cluster.ParseTopology(data)
	}
	if strings.HasPrefix(strings.TrimSpace(arg), "{") {
		return cluster.ParseTopology([]byte(arg))
	}
	return cluster.Topology{}, fmt.Errorf("not a preset (%v), @file, or inline JSON: %q",
		cluster.TopologyPresets(), arg)
}

// classicOnlyFlags are the paired-mode deployment knobs a -topology
// run never reads, each with the topology spec field that does its job.
var classicOnlyFlags = []struct{ name, field string }{
	{"policy", `a tier's "dispatch"`},
	{"jockey", `a home-routed tier's "jockey"`},
	{"detour-ms", `a home-routed tier's "detourMs"`},
	{"edge-slowdown", `a tier's "slowdown"`},
	{"queue-cap", `a tier's "queueCap"`},
	{"overflow-at", `a spill edge's "threshold"`},
}

// gridIgnoredFlags are the flags a -grid run never reads beyond the
// classicOnlyFlags deployment knobs: the grid builds its own shapes,
// paths, capacities and generator sources, and its rates replace -rate.
var gridIgnoredFlags = []string{"topology", "sweep", "trace", "azure", "azure-bin", "shards",
	"skew", "scenario", "servers", "rate", "scaler", "autoscale-max"}

// checkGridFlags rejects every flag given on the command line (set)
// that a -grid run would otherwise ignore without a word.
func checkGridFlags(set map[string]bool) error {
	names := append([]string(nil), gridIgnoredFlags...)
	for _, f := range classicOnlyFlags {
		names = append(names, f.name)
	}
	for _, name := range names {
		if set[name] {
			return fmt.Errorf("-grid builds its own deployment shapes and sources; drop -%s", name)
		}
	}
	return nil
}

// checkGenFlags rejects the numbers no synthetic workload can be
// generated from, naming the flag, before any run starts: the same
// holes GenSpec.Validate guards (NaN and infinities pass "<= 0"), plus
// a -warmup that would discard the whole run.
func checkGenFlags(sites, servers int, rate, duration, warmup, arrivalSCV, serviceSCV float64) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case sites < 1:
		return fmt.Errorf("-sites must be >= 1 (got %d)", sites)
	case servers < 1:
		return fmt.Errorf("-servers must be >= 1 (got %d)", servers)
	case !(rate > 0) || !finite(rate):
		return fmt.Errorf("-rate must be positive and finite (got %v)", rate)
	case !(duration > 0) || !finite(duration):
		return fmt.Errorf("-duration must be positive and finite (got %v)", duration)
	case !(warmup < duration):
		return fmt.Errorf("-warmup %v must be below -duration %v: the run would measure nothing", warmup, duration)
	case !(arrivalSCV >= 0) || !finite(arrivalSCV):
		return fmt.Errorf("-arrival-scv must be finite and >= 0 (got %v)", arrivalSCV)
	case !(serviceSCV >= 0) || !finite(serviceSCV):
		return fmt.Errorf("-service-scv must be finite and >= 0 (got %v)", serviceSCV)
	}
	return nil
}

// checkTopologyFlags rejects classic-mode flags that a -topology run
// would otherwise ignore without a word: -skew (graph replays generate
// uniform per-site load), any explicitly set classicOnlyFlags entry,
// -autoscale-max without -scaler (under -topology it only bounds the
// -scaler controller), and an explicitly set -sites that disagrees
// with a home-routed ingress tier, whose station count fixes the
// trace's site count. set holds the names of the flags given on the
// command line.
func checkTopologyFlags(topo cluster.Topology, skew string, sites int, set map[string]bool) error {
	if skew != "" {
		return fmt.Errorf("-skew applies to the classic paired mode only; -topology replays uniform per-site load")
	}
	for _, f := range classicOnlyFlags {
		if set[f.name] {
			return fmt.Errorf("-%s applies to the classic paired mode only; with -topology, set %s in the topology spec",
				f.name, f.field)
		}
	}
	if set["autoscale-max"] && !set["scaler"] {
		return fmt.Errorf("-autoscale-max only bounds -scaler under -topology; set -scaler too, " +
			`or a tier's "scaler" block in the topology spec`)
	}
	if ingress := topo.Tiers[0]; set["sites"] && ingress.Dispatch == "" && sites != ingress.Sites {
		return fmt.Errorf("-sites %d disagrees with topology %q, whose home-routed ingress tier %q has %d sites",
			sites, topo.Name, ingress.Name, ingress.Sites)
	}
	return nil
}

// checkSpan rejects a recorded workload whose replay (n requests over
// span seconds) ends at or before -warmup: the warmup would discard
// every request and the run would print zeros.
func checkSpan(what string, n uint64, span, warmup float64) error {
	if !(warmup < span) {
		return fmt.Errorf("-warmup %v is not below the %.4gs span of %s (%d requests): the replay would measure nothing",
			warmup, span, what, n)
	}
	if n == 0 {
		return fmt.Errorf("%s holds no requests: the replay would measure nothing", what)
	}
	return nil
}

// checkSweepSpans applies checkSpan to every swept rate of a recorded
// workload: a sweep rescales the trace so its aggregate rate hits each
// point, which stretches or shrinks its span.
func checkSweepSpans(what string, ws workloadStats, topo cluster.Topology, rates []float64, warmup float64) error {
	ingress := topo.Tiers[0]
	perSite := max(ingress.ServersPerSite, 1)
	for _, rate := range rates {
		target := rate * float64(perSite) * float64(ingress.Sites)
		span := ws.dur * (ws.rate / target)
		if err := checkSpan(fmt.Sprintf("%s at %g req/s/server", what, rate), ws.n, span, warmup); err != nil {
			return err
		}
	}
	return nil
}

// parseScalerSpec resolves the -scaler flag: "reactive" or
// "predictive[:forecaster]", with bounds minServers..max (max defaults
// to 4× the starting servers when the -autoscale-max flag is unset).
func parseScalerSpec(arg string, minServers, maxFlag int, mu float64) (autoscale.Spec, error) {
	min := minServers
	if min <= 0 {
		min = 1
	}
	max := maxFlag
	if max <= 0 {
		max = 4 * min
	}
	policy, forecaster := arg, ""
	if i := strings.IndexByte(arg, ':'); i >= 0 {
		policy, forecaster = arg[:i], arg[i+1:]
	}
	var spec autoscale.Spec
	switch policy {
	case autoscale.PolicyReactive:
		if forecaster != "" {
			return autoscale.Spec{}, fmt.Errorf("reactive scalers take no forecaster (got %q)", forecaster)
		}
		spec = autoscale.DefaultReactiveSpec(min, max)
	case autoscale.PolicyPredictive:
		spec = autoscale.DefaultPredictiveSpec(min, max, mu, forecaster)
	default:
		return autoscale.Spec{}, fmt.Errorf("unknown policy %q (want one of %v)", policy, autoscale.Policies())
	}
	return spec, spec.Validate()
}

// parseAdmitSpec resolves the -admit flag: "policy[:k=v,...]" — e.g.
// "token-bucket:rate=6,burst=3", "queue-length:threshold=4", or
// "priority:threshold=4,cutoff=1".
func parseAdmitSpec(arg string) (admit.Spec, error) {
	policy, params := arg, ""
	if i := strings.IndexByte(arg, ':'); i >= 0 {
		policy, params = arg[:i], arg[i+1:]
	}
	spec := admit.Spec{Policy: policy}
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return admit.Spec{}, fmt.Errorf("parameter %q is not key=value", kv)
			}
			switch k {
			case "rate", "burst":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return admit.Spec{}, fmt.Errorf("%s: %v", k, err)
				}
				if k == "rate" {
					spec.Rate = f
				} else {
					spec.Burst = f
				}
			case "threshold", "cutoff":
				n, err := strconv.Atoi(v)
				if err != nil {
					return admit.Spec{}, fmt.Errorf("%s: %v", k, err)
				}
				if k == "threshold" {
					spec.Threshold = n
				} else {
					spec.Cutoff = n
				}
			default:
				return admit.Spec{}, fmt.Errorf("unknown parameter %q (want rate, burst, threshold, cutoff)", k)
			}
		}
	}
	return spec, spec.Validate()
}

// loadTopologyWithScaler resolves -topology and, when -scaler or
// -admit is set, attaches (or replaces) the entry tier's capacity
// controller and admission policy.
func loadTopologyWithScaler(arg, scalerArg, admitArg string, maxFlag int, mu float64) (cluster.Topology, error) {
	topo, err := loadTopology(arg)
	if err != nil {
		return cluster.Topology{}, err
	}
	if scalerArg != "" {
		entry := &topo.Tiers[0]
		servers := entry.ServersPerSite
		if servers <= 0 {
			servers = 1
		}
		spec, err := parseScalerSpec(scalerArg, servers, maxFlag, mu)
		if err != nil {
			return cluster.Topology{}, fmt.Errorf("-scaler: %w", err)
		}
		entry.Scaler = &spec
	}
	if admitArg != "" {
		spec, err := parseAdmitSpec(admitArg)
		if err != nil {
			return cluster.Topology{}, fmt.Errorf("-admit: %w", err)
		}
		topo.Tiers[0].Admission = &spec
	}
	return topo, nil
}

// runTopology replays a workload through the deployment graph and
// prints aggregate and per-tier latency/spill/drop/cost metrics. The
// workload is generated on the fly from the rate flags, or decoded row
// by row from a -trace / -azure file; nothing trace-sized is ever held,
// so -duration can describe 10⁸+ requests on a laptop (pair with
// -summary bounded). With a positive shard resolution the replay fans
// out across engines via cluster.RunPipelined, bit-identical for every
// shard count.
func runTopology(topo cluster.Topology, in workloadInput, sh shardChoice,
	gc genChoice, sites, servers int, rate, duration, warmup, arrivalSCV float64, seed int64,
	rejectPenalty float64, model app.InferenceModel, mode stats.Mode) {
	nShards, err := sh.resolve(topo)
	if err != nil {
		fail("-shards: %v", err)
	}
	// Home-routed ingress fixes the trace's site count; a dispatcher
	// ingress (a pure-cloud graph) uses the -sites flag.
	ingress := topo.Tiers[0]
	genSites := sites
	perSite := servers
	homeIngress := ingress.Dispatch == ""
	if homeIngress {
		genSites = ingress.Sites
		if ingress.ServersPerSite > 0 {
			perSite = ingress.ServersPerSite
		}
	}
	gw, err := gc.resolve(genSites)
	if err != nil {
		fail("%v", err)
	}
	opts := cluster.Options{
		Warmup:     warmup,
		Seed:       seed + 1,
		Summary:    mode,
		GenWorkers: gw,
	}
	if rejectPenalty != 0 {
		pricing := econ.DefaultPricing()
		pricing.RejectPenalty = rejectPenalty
		opts.Pricing = &pricing
	}
	var res *cluster.TopologyResult
	switch {
	case in.active():
		// Replay a decoded file. Home ingress pins the site count: the
		// request decoder turns out-of-range sites into decode errors,
		// and the Azure header must declare exactly the home count. A
		// dispatcher-only graph takes whatever sites the file carries
		// (pre-scanned only when sharding needs the count up front).
		limit, fileSites := 0, 0
		switch {
		case in.azurePath != "":
			fileSites, err = in.azureSites()
			if err != nil {
				fail("-azure: %v", err)
			}
			if homeIngress && fileSites != genSites {
				fail("-azure: file has %d sites but topology %q expects %d",
					fileSites, topo.Name, genSites)
			}
		case homeIngress:
			limit, fileSites = genSites, genSites
		case nShards > 0:
			ws, err := scanWorkload(in.factory(0))
			if err != nil {
				fail("%s: %v", in.flagName(), err)
			}
			fileSites = ws.sites
		}
		factory := in.factory(limit)
		if nShards > 0 {
			if nShards > fileSites {
				nShards = fileSites
			}
			res, err = cluster.RunPipelined(cluster.SourceShards(factory, fileSites), topo, opts, nShards)
		} else {
			res, err = cluster.Run(factory(), topo, opts)
		}
	default:
		spec := genSpec(genSites, perSite, rate, duration, arrivalSCV, seed, model)
		if err := spec.Validate(); err != nil {
			fail("%v", err)
		}
		if nShards > 0 {
			nShards = min(nShards, genSites)
			res, err = cluster.RunPipelined(cluster.GenShards(spec), topo, opts, nShards)
		} else {
			res, err = cluster.Run(opts.GenSource(spec), topo, opts)
		}
	}
	if err != nil {
		fail("-topology: %v", err)
	}
	if in.active() {
		if err := checkSpan(in.label(), res.Offered, res.Duration, warmup); err != nil {
			fail("%v", err)
		}
	}

	fmt.Printf("topology %s: %d tiers, %d spill edges, %d classes\n",
		res.Label, len(topo.Tiers), len(topo.Spills), len(topo.Classes))
	if nShards > 0 {
		fmt.Printf("engine: %d sharded engines streaming into the shared phase (bit-identical for any shard count)\n", nShards)
	}
	printWorkload(in, res)

	rows := [][]interface{}{latencyRow(res.Label, &res.Result)}
	asciiplot.Table(os.Stdout, []string{"deployment", "util", "mean (ms)", "median", "p95", "p99", "max", "n"}, rows)

	fmt.Println()
	var tierRows [][]interface{}
	for _, tier := range res.Tiers {
		tierRows = append(tierRows, []interface{}{
			tier.Name, tier.Utilization,
			tier.EndToEnd.Mean() * 1000, tier.EndToEnd.P95() * 1000,
			int(tier.Served), int(tier.Spilled), int(tier.Dropped),
			tier.CostPerHour, tier.CostPerReq * 1000,
		})
	}
	asciiplot.Table(os.Stdout,
		[]string{"tier", "util", "mean (ms)", "p95 (ms)", "served", "spilled", "dropped",
			"$/hr", "$/kreq"}, tierRows)

	for _, tier := range res.Tiers {
		if len(tier.Sites) < 2 {
			continue
		}
		// The entry tier carries per-site client latency; deeper tiers
		// report per-station queueing instead.
		e2e := tier.Sites[0].EndToEnd.N() > 0
		header := []string{"site", "req/s", "util", "wait mean (ms)", "wait p95 (ms)", "n"}
		if e2e {
			header = []string{"site", "req/s", "util", "mean (ms)", "p95 (ms)", "n"}
		}
		fmt.Println()
		var siteRows [][]interface{}
		for _, s := range tier.Sites {
			d := s.Wait
			if e2e {
				d = s.EndToEnd
			}
			siteRows = append(siteRows, []interface{}{
				fmt.Sprintf("%s-%d", tier.Name, s.Site), s.MeanRate, s.Utilization,
				d.Mean() * 1000, d.P95() * 1000, d.N(),
			})
		}
		asciiplot.Table(os.Stdout, header, siteRows)
	}

	// Per-SLO-class tables (classful topologies only): how each class
	// fared at each tier it touched, plus the tier's Jain fairness
	// index over per-class served counts.
	for _, tier := range res.Tiers {
		var classTotal uint64
		for _, c := range tier.Classes {
			classTotal += c.Served + c.Dropped + c.Rejected
		}
		if classTotal == 0 {
			continue
		}
		fmt.Println()
		var classRows [][]interface{}
		served := make([]float64, 0, len(tier.Classes))
		for _, c := range tier.Classes {
			classRows = append(classRows, []interface{}{
				tier.Name + "/" + c.Name, int(c.Served), int(c.Dropped), int(c.Rejected),
				c.EndToEnd.Mean() * 1000, c.EndToEnd.P95() * 1000,
			})
			served = append(served, float64(c.Served))
		}
		asciiplot.Table(os.Stdout,
			[]string{"class", "served", "dropped", "rejected", "mean (ms)", "p95 (ms)"}, classRows)
		fmt.Printf("fairness[%s]: Jain index %.3f over per-class served counts\n",
			tier.Name, stats.Jain(served))
	}

	fmt.Println()
	if res.Redirected > 0 {
		fmt.Printf("geographic LB redirected %d requests\n", res.Redirected)
	}
	if res.Dropped > 0 {
		fmt.Printf("bounded queues dropped %d requests\n", res.Dropped)
	}
	if res.Rejected > 0 {
		fmt.Printf("admission rejected %d requests\n", res.Rejected)
		for i, tier := range res.Tiers {
			if tier.Rejected > 0 && topo.Tiers[i].Admission != nil {
				fmt.Printf("  %s [%s]: %d rejected\n",
					tier.Name, topo.Tiers[i].Admission.Label(), tier.Rejected)
			}
		}
	}
	for _, tier := range res.Tiers {
		if tier.ScalerPolicy != "" {
			fmt.Printf("scaler[%s %s]: %d scale-ups, %d scale-downs, peak %d servers, %.0f server-sec\n",
				tier.Name, tier.ScalerPolicy, tier.ScaleUps, tier.ScaleDowns,
				tier.PeakServers, tier.ServerSeconds)
		}
	}
	fmt.Printf("cost: $%.4f total capacity spend (%.4f $/kreq)\n",
		res.TotalCost, res.CostPerRequest*1000)
	var rejCost float64
	for _, tier := range res.Tiers {
		rejCost += tier.RejectionCost
	}
	if rejCost > 0 {
		fmt.Printf("  includes $%.4f admission-rejection penalty\n", rejCost)
	}
	if res.Rejected > 0 {
		fmt.Printf("conservation: offered %d = served %d + dropped %d + rejected %d + warmup-discarded %d\n",
			res.Offered, res.Completed, res.Dropped, res.Rejected,
			res.Consumed-res.Completed-res.Dropped-res.Rejected)
	} else {
		fmt.Printf("conservation: offered %d = served %d + dropped %d + warmup-discarded %d\n",
			res.Offered, res.Completed, res.Dropped,
			res.Consumed-res.Completed-res.Dropped)
	}
}

// printWorkload prints the workload banner from a run's result: what
// it replayed, how many requests over how long.
func printWorkload(in workloadInput, res *cluster.TopologyResult) {
	aggRate := 0.0
	if res.Duration > 0 {
		aggRate = float64(res.Offered) / res.Duration
	}
	if in.active() {
		fmt.Printf("workload (%s): %d requests over %.0fs (%.1f req/s aggregate)\n\n",
			in.label(), res.Offered, res.Duration, aggRate)
		return
	}
	fmt.Printf("workload (streamed): %d requests over %.0fs (%.1f req/s aggregate), never materialized\n\n",
		res.Offered, res.Duration, aggRate)
}

// genSpec assembles the generator spec the topology runners share.
func genSpec(sites, perSite int, rate, duration, arrivalSCV float64, seed int64,
	model app.InferenceModel) cluster.GenSpec {
	return cluster.GenSpec{
		Sites:       sites,
		Duration:    duration,
		PerSiteRate: rate * float64(perSite),
		ArrivalSCV:  arrivalSCV,
		Model:       model,
		Seed:        seed,
	}
}

// runTopologySweepCLI sweeps request rates through the deployment
// graph (the ROADMAP's topology-sweep CLI): per-rate aggregate and
// per-tier tables, plus the inversion crossover against a pooled cloud
// of equal total capacity on the -scenario's cloud path — the paper's
// edge-vs-cloud question generalized to arbitrary hierarchies.
func runTopologySweepCLI(topo cluster.Topology, sweepArg string,
	in workloadInput, sh shardChoice, sc netem.Scenario,
	duration, warmup, arrivalSCV float64, seed int64, model app.InferenceModel, mode stats.Mode) {
	rates, err := parseRates(sweepArg)
	if err != nil {
		fail("-sweep: %v", err)
	}
	// The capacity-matched baseline: every server the hierarchy may
	// deploy, pooled behind one central queue at the scenario's cloud
	// distance, replaying the identical per-rate traces (paired, so the
	// crossover carries no unpaired sampling noise). Scaled tiers count
	// at their scaler's Max — the capacity budget the elastic tier can
	// reach — so attaching a scaler does not let the hierarchy quietly
	// outgrow its "equal-capacity" rival.
	total := 0
	for _, t := range topo.Tiers {
		per := t.ServersPerSite
		if per <= 0 {
			per = 1
		}
		switch {
		case t.Scaler != nil:
			total += t.Sites * t.Scaler.Max
		case t.PerSiteServers != nil:
			for _, s := range t.PerSiteServers {
				total += s
			}
		default:
			total += t.Sites * per
		}
	}
	baseline := cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{cluster.CloudTier(total, sc.Cloud, "")}}
	sweepCfg := experiments.TopologySweepConfig{
		Topology:   topo,
		Rates:      rates,
		Duration:   duration,
		Warmup:     warmup,
		Seed:       seed,
		Model:      model,
		ArrivalSCV: arrivalSCV,
		Summary:    mode,
		Rivals:     []cluster.Topology{baseline},
	}
	switch {
	case in.active():
		// Source-driven sweeps replay one engine per point: a factory
		// cannot be split into per-site ranges.
		if sh.set && sh.n != 0 {
			fail("-shards cannot combine with a %s sweep: a source factory cannot be split into site ranges", in.flagName())
		}
	case sh.set:
		sweepCfg.Shards = sh.n
	default:
		sweepCfg.Shards = experiments.AutoShards
	}
	if in.active() {
		// A recorded trace carries one rate; the sweep replays it with
		// its timeline rescaled so the aggregate rate lands on each
		// swept point (service demands untouched). One pre-scan measures
		// the native rate and validates the file end to end.
		limit := 0
		if ingress := topo.Tiers[0]; ingress.Dispatch == "" {
			limit = ingress.Sites
		}
		ws, err := scanWorkload(in.factory(limit))
		if err != nil {
			fail("%s: %v", in.flagName(), err)
		}
		if limit > 0 && in.azurePath != "" && ws.sites != limit {
			fail("-azure: file has %d sites but topology %q expects %d", ws.sites, topo.Name, limit)
		}
		if err := checkSweepSpans(in.label(), ws, topo, rates, warmup); err != nil {
			fail("-sweep: %v", err)
		}
		factory := in.factory(limit)
		sweepCfg.Source = func(spec cluster.GenSpec) cluster.Source {
			target := spec.PerSiteRate * float64(spec.Sites)
			return trace.TimeScale(factory(), ws.rate/target)
		}
		fmt.Printf("workload (%s): %d requests over %.0fs (%.1f req/s aggregate native), rescaled per swept rate\n",
			in.label(), ws.n, ws.dur, ws.rate)
	}
	res, err := experiments.RunTopologySweep(sweepCfg)
	if err != nil {
		fail("-sweep: %v", err)
	}
	cloud := res.Rivals[0]

	fmt.Printf("topology sweep %s: %d tiers, %d servers max capacity; cloud baseline %d pooled servers at %.0fms\n\n",
		topo.Name, len(topo.Tiers), total, total, sc.Cloud.MeanRTT()*1000)
	var rows [][]interface{}
	for i, p := range res.Points {
		c := cloud[i]
		rows = append(rows, []interface{}{
			p.RatePerServer,
			p.Mean * 1000, c.Mean * 1000, p.P95 * 1000, c.P95 * 1000,
			int(p.Dropped),
		})
	}
	asciiplot.Table(os.Stdout, []string{
		"req/s/srv", "topo mean", "cloud mean", "topo p95", "cloud p95", "dropped",
	}, rows)

	fmt.Println()
	var tierRows [][]interface{}
	for i, p := range res.Points {
		for _, t := range p.Tiers {
			tierRows = append(tierRows, []interface{}{
				res.Points[i].RatePerServer, t.Name, t.Utilization,
				t.Mean * 1000, t.P95 * 1000, int(t.Served), int(t.Spilled),
				t.PeakServers, t.CostPerReq * 1000,
			})
		}
	}
	asciiplot.Table(os.Stdout, []string{
		"req/s/srv", "tier", "util", "mean (ms)", "p95 (ms)", "served", "spilled",
		"peak srv", "$/kreq",
	}, tierRows)

	fmt.Println()
	for _, m := range []experiments.Metric{experiments.Mean, experiments.P95} {
		switch rate, atFloor, ok := res.Crossover(m, 0); {
		case ok && atFloor:
			fmt.Printf("crossover (%s): hierarchy already loses to the pooled cloud at %.1f req/s/srv (sweep lower rates to bracket it)\n", m, rate)
		case ok:
			fmt.Printf("crossover (%s): hierarchy loses to the pooled cloud above ~%.1f req/s/srv\n", m, rate)
		default:
			fmt.Printf("crossover (%s): hierarchy beats the pooled cloud across the swept rates\n", m)
		}
	}
}

// runGridCLI evaluates the crossover surface (experiments.RunGrid) and
// renders it as a heatmap of hierarchy-minus-pooled mean latency, the
// per-column inversion points, and the best depth per budget.
func runGridCLI(rates []float64, budgets, depths []int, reps, sites int, gc genChoice,
	duration, warmup, arrivalSCV float64, seed int64, model app.InferenceModel, mode stats.Mode) {
	gw, err := gc.resolve(sites)
	if err != nil {
		fail("%v", err)
	}
	res, err := experiments.RunGrid(experiments.GridConfig{
		Sites:        sites,
		Rates:        rates,
		Budgets:      budgets,
		Depths:       depths,
		Replications: reps,
		Duration:     duration,
		Warmup:       warmup,
		Seed:         seed,
		Model:        model,
		ArrivalSCV:   arrivalSCV,
		Summary:      mode,
		GenWorkers:   gw,
	})
	if err != nil {
		fail("-grid: %v", err)
	}
	cfg := res.Config

	fmt.Printf("crossover grid: %d sites, %d rates x %d budgets x %d depths, %d replication(s); "+
		"one broadcast generation pass per trace\n\n",
		cfg.Sites, len(cfg.Rates), len(cfg.Budgets), len(cfg.Depths), cfg.Replications)

	var rows []string
	var values [][]float64
	for _, b := range cfg.Budgets {
		for _, d := range cfg.Depths {
			rows = append(rows, fmt.Sprintf("b%d d%d", b, d))
			var vs []float64
			for _, rate := range cfg.Rates {
				vs = append(vs, (res.Cell(rate, b, d).Mean-res.Baseline(rate, b).Mean)*1000)
			}
			values = append(values, vs)
		}
	}
	cols := make([]string, len(cfg.Rates))
	for i, r := range cfg.Rates {
		cols[i] = fmt.Sprintf("%g", r)
	}
	asciiplot.Heatmap(os.Stdout,
		"hierarchy mean - pooled-cloud mean (ms) vs per-site req/s (dark = inverted)",
		rows, cols, values)

	fmt.Println()
	var out [][]interface{}
	maxRate := cfg.Rates[len(cfg.Rates)-1]
	for _, c := range res.Crossovers {
		cross := "none in range"
		switch {
		case c.AtFloor:
			cross = "inverted at floor"
		case !math.IsNaN(c.Crossover):
			cross = fmt.Sprintf("%.1f req/s", c.Crossover)
		}
		cell := res.Cell(maxRate, c.Budget, c.Depth)
		base := res.Baseline(maxRate, c.Budget)
		out = append(out, []interface{}{
			c.Budget, c.Depth, cross,
			cell.Mean * 1000, base.Mean * 1000, cell.Spilled, cell.Dropped,
		})
	}
	asciiplot.Table(os.Stdout, []string{
		"budget", "depth", "inversion at",
		"mean @max (ms)", "pooled @max (ms)", "spilled", "dropped",
	}, out)

	fmt.Println()
	for _, b := range cfg.Budgets {
		d, at, ok := res.BestDepth(b)
		switch {
		case !ok:
			fmt.Printf("budget %d: every depth already inverted at the lowest rate\n", b)
		case math.IsInf(at, 1):
			fmt.Printf("budget %d: depth %d delays inversion longest (past the swept range)\n", b, d)
		default:
			fmt.Printf("budget %d: depth %d delays inversion longest (to %.1f req/s)\n", b, d, at)
		}
	}
}

// writeMemProfile captures an end-of-run heap profile (after a GC, so
// it reflects retained memory rather than garbage).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgesim: -memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "edgesim: -memprofile:", err)
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", p, err)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("rate %v must be positive and finite", v)
		}
		out = append(out, v)
	}
	// The crossover scan interpolates the first sign change, which only
	// means anything on a monotone rate axis.
	sort.Float64s(out)
	return out, nil
}

func latencyRow(name string, r *cluster.Result) []interface{} {
	return []interface{}{
		name, r.Utilization,
		r.EndToEnd.Mean() * 1000, r.EndToEnd.Median() * 1000,
		r.EndToEnd.P95() * 1000, r.EndToEnd.P99() * 1000,
		r.EndToEnd.Quantile(1) * 1000, r.EndToEnd.N(),
	}
}

func parseWeights(s string, k int) ([]float64, error) {
	parts := strings.Split(s, ",")
	if len(parts) != k {
		return nil, fmt.Errorf("-skew needs %d weights, got %d", k, len(parts))
	}
	out := make([]float64, len(parts))
	sum := 0.0
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-skew: bad weight %q: %w", p, err)
		}
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("-skew: weight %v must be finite and >= 0", v)
		}
		out[i] = v
		sum += v
	}
	if sum == 0 {
		return nil, fmt.Errorf("-skew: weights sum to zero")
	}
	return out, nil
}
