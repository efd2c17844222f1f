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
// The flags pick one of five modes:
//
//	paired    no -topology: the paper's edge/cloud pair plus mitigation rows
//	topology  -topology: one replay through a deployment graph (a preset
//	          name, @file.json or inline JSON), with per-tier metrics
//	sweep     -topology with -sweep: a rate sweep against a pooled cloud
//	grid      -grid: the crossover surface over server budgets and depths
//	compile   -compile: convert a -trace/-azure file and exit
//
// Every mode but compile can generate its workload, streamed while it
// replays (so -duration can describe 10⁸+ requests; pair with -summary
// bounded); topology and sweep runs can replay a recorded -trace or
// -azure file instead:
//
//	edgesim -topology edge-regional-cloud -shards 4 -rate 11
//	edgesim -topology edge-regional-cloud -trace requests.csv
//	edgesim -topology edge-regional-cloud -azure counts.csv -sweep 6,9,12
//	edgesim -grid 6,12,18,24 -grid-budgets 10,15 -grid-depths 1,2,3
//
// One table, flagContexts, lists the (mode, workload) contexts whose
// code reads each flag, and -help prints them next to each flag. A flag
// set on the command line that the run's context does not read is a
// usage error (exit 2) naming the flag and where it applies; a run that
// fails after its flags were accepted exits 1 with one line. -v narrates
// the engine choice (why -shards auto fell back to the single engine,
// how -gen-workers auto resolved), and -cpuprofile's samples carry pprof
// labels per replay phase (generate, phase-1, merge, phase-2).
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

// die reports a run that failed after its flags were accepted: one
// line and exit status 1, since no flag was at fault.
func die(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "edgesim: "+format+"\n", args...)
	os.Exit(1)
}

// mode is what an invocation runs, and source where its requests come
// from; main picks both from the flags.
type (
	mode   int
	source int
)

const (
	paired mode = iota
	topology
	sweep
	grid
	compile
)

const (
	generated source = iota
	traceFile
	azureFile
)

var (
	modeNames   = [...]string{"paired", "topology", "sweep", "grid", "compile"}
	sourceNames = [...]string{"generated", "-trace", "-azure"}
)

// contexts is a set of run contexts, one bit per (mode, source) pair at
// bit 3*mode + source.
type contexts uint16

func contextOf(m mode, s source) contexts { return 1 << (3*int(m) + int(s)) }

// The contexts a run can be in: paired and grid runs read no file, and
// compile runs need one.
const (
	pairedGen     contexts = 1 << 0
	topologyGen   contexts = 1 << 3
	topologyTrace contexts = 1 << 4
	topologyAzure contexts = 1 << 5
	sweepGen      contexts = 1 << 6
	sweepTrace    contexts = 1 << 7
	sweepAzure    contexts = 1 << 8
	gridGen       contexts = 1 << 9
	compileTrace  contexts = 1 << 13
	compileAzure  contexts = 1 << 14

	topologyAll = topologyGen | topologyTrace | topologyAzure
	sweepAll    = sweepGen | sweepTrace | sweepAzure
	generations = pairedGen | topologyGen | sweepGen | gridGen
	replays     = generations | topologyTrace | topologyAzure | sweepTrace | sweepAzure
	azureRuns   = topologyAzure | sweepAzure | compileAzure
	validRuns   = replays | compileTrace | compileAzure
)

// flagContexts is edgesim's one flag table: the run contexts whose code
// reads each flag. checkFlags rejects a flag set on the command line
// that the run's context does not read, and the usage text lists each
// flag's contexts from here.
var flagContexts = map[string]contexts{
	// The generated workload.
	"duration": generations, "arrival-scv": generations, "service-scv": generations,
	"sites": pairedGen | topologyGen | gridGen, "gen-workers": pairedGen | topologyGen | gridGen,
	"servers": pairedGen | topologyGen, "rate": pairedGen | topologyGen,
	// Every replay.
	"warmup": replays, "summary": replays, "cpuprofile": replays, "memprofile": replays,
	"seed": replays | compileAzure, "v": pairedGen | topologyAll | gridGen,
	// The paired deployment; a topology spec sets each of these per tier.
	"policy": pairedGen, "edge-slowdown": pairedGen, "jockey": pairedGen, "detour-ms": pairedGen,
	"queue-cap": pairedGen, "overflow-at": pairedGen, "skew": pairedGen, "scenario": pairedGen | sweepAll,
	"scaler": pairedGen | topologyAll | sweepAll, "autoscale-max": pairedGen | topologyAll | sweepAll,
	// Deployment graphs and recorded workloads.
	"topology": topologyAll | sweepAll, "admit": topologyAll | sweepAll, "shards": topologyAll | sweepAll,
	"reject-penalty": topologyAll, "sweep": sweepAll, "compile": compileTrace | compileAzure,
	"trace": topologyTrace | sweepTrace | compileTrace, "azure": azureRuns, "azure-bin": azureRuns,
	// The crossover grid.
	"grid": gridGen, "grid-budgets": gridGen, "grid-depths": gridGen, "grid-reps": gridGen,
}

// String names the contexts by mode, qualifying a mode with its sources
// when the set holds only some of them: "paired, topology (generated)".
func (cs contexts) String() string {
	var parts []string
	for m, name := range modeNames {
		all := validRuns & (7 << (3 * m))
		if cs&all == 0 {
			continue
		}
		if cs&all != all {
			var srcs []string
			for s, src := range sourceNames {
				if cs&contextOf(mode(m), source(s)) != 0 {
					srcs = append(srcs, src)
				}
			}
			name += " (" + strings.Join(srcs, ", ") + ")"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, ", ")
}

// options holds every parsed flag plus what main derives from them
// once; each mode's runner reads what it needs from it.
type options struct {
	sites, servers, jockey, queueCap, autoscaleMax, overflowAt, shards, gridReps int
	rate, duration, warmup, arrivalSCV, serviceSCV                               float64
	slowdown, detourMs, rejectPenalty, azureBin                                  float64
	seed                                                                         int64
	scenario, summaryName, policy, skew, topology, scaler, admit, sweep          string
	trace, azure, genWorkers, compile, grid, gridBudgets, gridDepths             string
	cpuprofile, memprofile                                                       string
	verbose                                                                      bool

	set     map[string]bool // the flags given on the command line
	sc      netem.Scenario
	model   app.InferenceModel
	summary stats.Mode
	topo    cluster.Topology // topology and sweep mode
}

// cli is edgesim's flags, registered on flag.CommandLine.
var cli = defineFlags(flag.CommandLine)

// defineFlags registers every flag on fs, appending to each usage line
// the contexts flagContexts lists for it.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{set: map[string]bool{}}
	fs.IntVar(&o.sites, "sites", 5, "number of edge sites (under -topology, must match a home-routed entry tier when set)")
	fs.IntVar(&o.servers, "servers", 1, "servers per edge site (under -topology, must match a home-routed entry tier's servers when set)")
	fs.Float64Var(&o.rate, "rate", 8, "request rate per server (req/s)")
	fs.StringVar(&o.scenario, "scenario", "typical-25ms", "netem scenario: nearby-13ms|typical-25ms|distant-54ms|transcontinental-80ms "+
		"(the paired edge and cloud paths; a sweep's pooled-cloud path)")
	fs.Float64Var(&o.duration, "duration", 600, "simulated seconds")
	fs.Float64Var(&o.warmup, "warmup", 60, "warmup seconds discarded from metrics")
	fs.Int64Var(&o.seed, "seed", 1, "random seed (compile: the -azure service-time draws)")
	fs.Float64Var(&o.arrivalSCV, "arrival-scv", cluster.DefaultArrivalSCV, "squared CoV of inter-arrival times")
	fs.Float64Var(&o.serviceSCV, "service-scv", app.DefaultServiceSCV, "squared CoV of service times")
	fs.StringVar(&o.policy, "policy", "central-queue", "cloud dispatch: central-queue|round-robin|least-connections|power-of-two|random "+
		`(a topology spec sets a tier's "dispatch")`)
	fs.Float64Var(&o.slowdown, "edge-slowdown", 1, `edge service-time slowdown factor, a resource-constrained edge (a topology spec sets a tier's "slowdown")`)
	fs.IntVar(&o.jockey, "jockey", 0, `geographic LB: redirect when home-site load >= this, 0=off (a topology spec sets a home-routed tier's "jockey")`)
	fs.Float64Var(&o.detourMs, "detour-ms", 5, `extra RTT for jockeyed requests in ms (a topology spec sets a home-routed tier's "detourMs")`)
	fs.StringVar(&o.skew, "skew", "", "comma-separated per-site weights (e.g. 5,2,1,1,1); graph replays generate uniform per-site load")
	fs.IntVar(&o.queueCap, "queue-cap", 0, `bound each queue at this many waiting requests, 0=unbounded (a topology spec sets a tier's "queueCap")`)
	fs.StringVar(&o.summaryName, "summary", "exact", "latency summary memory model: exact (retain every sample) | bounded (streaming moments + "+
		"a mergeable log-bucket sketch, quantiles within 0.78%, for huge replays)")
	fs.IntVar(&o.autoscaleMax, "autoscale-max", 0, "also run an autoscaled edge growing each site up to this many servers (0=off); "+
		"with -scaler, only sets that scaler's upper bound (under -topology it requires -scaler)")
	fs.IntVar(&o.overflowAt, "overflow-at", 0, `also run a hierarchical edge overflowing to the cloud at this site load, 0=off (a topology spec sets a spill edge's "threshold")`)
	fs.StringVar(&o.topology, "topology", "", "replay through a deployment graph instead: preset name ("+
		strings.Join(cluster.TopologyPresets(), "|")+"), @file.json, or inline JSON spec")
	fs.StringVar(&o.scaler, "scaler", "", "attach a capacity scaler to the edge (entry) tier: "+
		"reactive | predictive[:forecaster] (forecasters: "+strings.Join(forecast.Names(), "|")+"); "+
		"bounds are servers..4x servers, or -autoscale-max when set")
	fs.StringVar(&o.admit, "admit", "", "attach an admission policy to the entry tier: "+
		"token-bucket:rate=R[,burst=B] | queue-length:threshold=N | priority:threshold=N[,cutoff=C] "+
		"(spec files set per-tier \"admission\" blocks directly)")
	fs.Float64Var(&o.rejectPenalty, "reject-penalty", 0, "dollars charged per admission-rejected "+
		"request in the cost overlay (0 = rejections are free)")
	fs.StringVar(&o.sweep, "sweep", "", "comma-separated req/s-per-server rates to sweep the -topology graph over, "+
		"printing per-tier metrics and the inversion crossover vs an equal-capacity pooled cloud")
	fs.IntVar(&o.shards, "shards", 0, "parallel replay engines. Unset: one per CPU when the "+
		"graph shards, the classic single engine otherwise. An explicit count forces that many sharded engines "+
		"and fails when the graph cannot shard; explicit 0 forces the classic single engine. Both engines "+
		"share one random-stream layout, so every count, 0 included, gives the same results; only "+
		"wall-clock time changes")
	fs.StringVar(&o.trace, "trace", "", "replay a request CSV (time,site,service) or a "+
		"compiled .etb binary trace (auto-detected by signature) instead of generating a workload; "+
		"a sweep rescales its arrival times so the trace hits each swept rate")
	fs.StringVar(&o.azure, "azure", "", "replay an Azure-style per-bin count CSV "+
		"(bin,site0,site1,...) instead of generating a workload; a sweep rescales it like -trace")
	fs.Float64Var(&o.azureBin, "azure-bin", 60, "seconds covered by each -azure CSV bin row")
	fs.StringVar(&o.genWorkers, "gen-workers", "serial", "parallel workers for synthetic workload generation: "+
		"serial, auto (one per CPU), or an explicit count — every setting produces the bit-identical record "+
		"sequence, so this only changes generation throughput (a sweep's points already run in parallel)")
	fs.StringVar(&o.compile, "compile", "", "convert the -trace/-azure input to this file and exit: a .csv "+
		"extension writes the request CSV format, anything else the .etb binary trace format; replay the "+
		"output later with -trace (the format is auto-detected)")
	fs.BoolVar(&o.verbose, "v", false, "explain engine selection on stderr (e.g. why -shards auto fell back to the "+
		"classic single engine, or how -gen-workers auto resolved)")
	fs.StringVar(&o.grid, "grid", "", "run a crossover grid over these per-site req/s rates (comma-separated): "+
		"every -grid-budgets x -grid-depths deployment shape plus a pooled-cloud baseline replays each rate "+
		"from one broadcast generation pass per distinct trace")
	fs.StringVar(&o.gridBudgets, "grid-budgets", "10,15", "comma-separated total server budgets per grid shape")
	fs.StringVar(&o.gridDepths, "grid-depths", "1,2,3", "comma-separated grid hierarchy depths "+
		"(1=pure edge, 2=edge+cloud overflow, 3=edge+regional+cloud chain)")
	fs.IntVar(&o.gridReps, "grid-reps", 1, "independent trace replications averaged per grid cell")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file; replay phases carry pprof "+
		"labels (generate, phase-1, merge, phase-2) for go tool pprof -tagfocus")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.VisitAll(func(f *flag.Flag) { f.Usage += " [" + flagContexts[f.Name].String() + "]" })
	return o
}

// usage prints the mode legend, then each flag with the modes that read it.
func usage() {
	fmt.Fprint(flag.CommandLine.Output(), `Usage of edgesim: the flags pick a mode and a workload.
  modes: paired (no -topology), topology (-topology), sweep (-topology with -sweep), grid (-grid), compile (-compile)
  workloads: generated, or a recorded -trace or -azure file (topology, sweep, compile)
Each flag lists the modes that read it; setting a flag the run does not read is an error.
`)
	flag.PrintDefaults()
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
	flag.Usage = usage
	flag.Parse()
	o := cli
	flag.Visit(func(f *flag.Flag) { o.set[f.Name] = true })

	if o.trace != "" && o.azure != "" {
		fail("-trace and -azure are mutually exclusive (one workload file per run)")
	}
	m, src := paired, generated
	switch {
	case o.compile != "":
		m = compile
	case o.grid != "":
		m = grid
	case o.topology != "" && o.sweep != "":
		m = sweep
	case o.topology != "":
		m = topology
	}
	switch {
	case m == paired || m == grid:
		// These modes read no file, so the flag table rejects -trace/-azure.
	case o.trace != "":
		src = traceFile
	case o.azure != "":
		src = azureFile
	case m == compile:
		fail("-compile needs a -trace or -azure input to convert")
	}
	o.model = app.NewInferenceModelWith(1/app.SaturationRate, o.serviceSCV)
	var err error
	if m == topology || m == sweep {
		if o.topo, err = loadTopology(o); err != nil {
			fail("-topology: %v", err)
		}
	}
	if err = checkFlags(contextOf(m, src), o.set, o.topo, o.sites, o.servers); err != nil {
		fail("%v", err)
	}

	var ok bool
	if o.sc, ok = netem.ScenarioByName(o.scenario); !ok {
		fail("unknown -scenario %q (want one of %v)", o.scenario, scenarioNames())
	}
	switch o.summaryName {
	case "exact":
		o.summary = stats.Exact
	case "bounded":
		o.summary = stats.Bounded
	default:
		fail("unknown -summary %q (want exact|bounded)", o.summaryName)
	}
	if o.policy != cluster.CentralQueueDispatch && !lb.Known(o.policy) {
		fail("unknown -policy %q (want %s or one of %v)",
			o.policy, cluster.CentralQueueDispatch, lb.Policies())
	}
	if o.shards < 0 {
		fail("-shards must be >= 0 (got %d)", o.shards)
	}
	if o.azureBin <= 0 {
		fail("-azure-bin must be positive (got %v)", o.azureBin)
	}
	if o.gridReps < 1 {
		fail("-grid-reps must be >= 1 (got %d)", o.gridReps)
	}
	if _, err = resolveGenWorkers(o.genWorkers, 1<<20, false); err != nil {
		// Validate the flag's syntax up front, silently (the huge site
		// count avoids clamping chatter); the real, narrated resolution
		// happens at each generation site with its actual site count.
		fail("%v", err)
	}
	if src == generated {
		if err = checkGenFlags(o.sites, o.servers, o.rate, o.duration, o.warmup, o.arrivalSCV, o.serviceSCV); err != nil {
			fail("%v", err)
		}
	}
	if m == compile {
		runCompile(o)
		return
	}

	// Profiles cover every replay mode below. The deferred writers fire
	// on main's normal return; fail() and die() exit without them.
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fail("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(o.memprofile)

	switch m {
	case grid:
		runGridCLI(o)
	case sweep:
		runTopologySweepCLI(o)
	case topology:
		runTopology(o)
	default:
		runPaired(o)
	}
}

// checkFlags rejects every flag given on the command line (set) that
// the run context does not read, naming the flag and the contexts that
// do. Under a graph (topology or sweep mode) it then rejects three
// combinations that depend on values: -autoscale-max without -scaler
// (there it only bounds the -scaler controller), and an explicit -sites
// or -servers that disagrees with a home-routed ingress tier, whose
// station count fixes the trace's site count and whose own servers per
// site replace -servers.
func checkFlags(run contexts, set map[string]bool, topo cluster.Topology, sites, servers int) error {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if where := flagContexts[name]; where&run == 0 {
			return fmt.Errorf("-%s is not read by a %s run; it applies to %s", name, run, where)
		}
	}
	if run&(topologyAll|sweepAll) == 0 {
		return nil
	}
	if set["autoscale-max"] && !set["scaler"] {
		return fmt.Errorf("-autoscale-max only bounds -scaler under -topology; set -scaler too, " +
			`or a tier's "scaler" block in the topology spec`)
	}
	ingress := topo.Tiers[0]
	if set["sites"] && ingress.Dispatch == "" && sites != ingress.Sites {
		return fmt.Errorf("-sites %d disagrees with topology %q, whose home-routed ingress tier %q has %d sites",
			sites, topo.Name, ingress.Name, ingress.Sites)
	}
	if set["servers"] && ingress.Dispatch == "" && ingress.ServersPerSite > 0 && servers != ingress.ServersPerSite {
		return fmt.Errorf("-servers %d disagrees with topology %q, whose home-routed ingress tier %q has %d servers per site",
			servers, topo.Name, ingress.Name, ingress.ServersPerSite)
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

// runPaired replays one generated workload through the paper's
// edge/cloud pair plus the mitigation rows the flags ask for, and
// prints the latency table, the per-site table and the verdict.
func runPaired(o *options) {
	// Validate -scaler before the expensive paired replay so a typo'd
	// policy fails in milliseconds, not after the runs.
	var scalerSpec *autoscale.Spec
	if o.scaler != "" {
		s, err := parseScalerSpec(o.scaler, o.servers, o.autoscaleMax, o.model.Mu())
		if err != nil {
			fail("-scaler: %v", err)
		}
		scalerSpec = &s
	}

	spec := o.genSpec(o.sites, o.servers)
	if o.skew != "" {
		weights, err := parseWeights(o.skew, o.sites)
		if err != nil {
			fail("%v", err)
		}
		totalRate := o.rate * float64(o.servers) * float64(o.sites)
		part := workload.NewStatic(weights)
		procs := make([]workload.ArrivalProcess, o.sites)
		for i, w := range part.W {
			procs[i] = workload.NewRenewal(dist.FitSCV(1/(totalRate*w), o.arrivalSCV))
		}
		spec.Arrivals = procs
	}
	if err := spec.Validate(); err != nil {
		fail("%v", err)
	}
	gw, err := resolveGenWorkers(o.genWorkers, spec.Sites, o.verbose)
	if err != nil {
		fail("%v", err)
	}

	// Every deployment replays the same workload and nothing else is
	// shared, so one broadcast pass runs them all concurrently. Only
	// the baseline edge keeps per-site latency for the site table.
	sc := o.sc
	variant := func(name string, seed int64, perSiteLatency bool, tiers ...cluster.Tier) cluster.Variant {
		return cluster.Variant{Label: name, Topology: cluster.Topology{Name: name, Tiers: tiers},
			Opts: cluster.Options{Warmup: o.warmup, Seed: seed, Summary: o.summary,
				NoPerSiteLatency: !perSiteLatency}}
	}
	edgeTier := cluster.Tier{
		Name: "edge", Sites: o.sites, ServersPerSite: o.servers, Path: sc.Edge,
		SlowdownFactor: o.slowdown, QueueCap: o.queueCap,
		JockeyThreshold: o.jockey, DetourRTT: o.detourMs / 1000,
	}
	variants := []cluster.Variant{
		variant("edge", o.seed+1, true, edgeTier),
		variant("cloud", o.seed+2, false, cluster.CloudTier(o.sites*o.servers, sc.Cloud, o.policy)),
	}
	// The mitigation rows start from the plain edge. With -scaler set,
	// -autoscale-max only supplies the scaler's upper bound; the
	// fixed-threshold edge+autoscale row would duplicate the scaled row
	// under different hardcoded parameters.
	plainEdge := cluster.Tier{Name: "edge", Sites: o.sites, ServersPerSite: o.servers, Path: sc.Edge}
	autoscaled := o.autoscaleMax > 0 && o.scaler == ""
	if autoscaled {
		reactive := autoscale.Spec{
			Policy: autoscale.PolicyReactive, Interval: 2, Min: o.servers, Max: o.autoscaleMax,
			UpThreshold: 1.5, DownThreshold: 0.2, Cooldown: 6,
		}
		tier := plainEdge
		tier.Scaler = &reactive
		variants = append(variants, variant("edge+autoscale", o.seed+1, false, tier))
	}
	if o.overflowAt > 0 {
		over := variant("edge+overflow", o.seed+1, false, plainEdge, cluster.CloudTier(o.sites*o.servers, sc.Cloud, ""))
		over.Topology.Spills = []cluster.SpillEdge{{From: "edge", To: "cloud", Threshold: o.overflowAt, DetourPath: &sc.Cloud}}
		variants = append(variants, over)
	}
	if scalerSpec != nil {
		// Carry every edge-shaping flag the baseline row uses, so the
		// scaled row differs from "edge" by the controller alone.
		tier := edgeTier
		tier.Scaler = scalerSpec
		variants = append(variants, variant("edge+"+scalerSpec.Label(), o.seed+1, false, tier))
	}
	runs, err := cluster.RunBroadcast(cluster.Options{GenWorkers: gw}.GenSource(spec), variants, 0)
	if err != nil {
		die("%v", err)
	}
	edge, cloud := runs[0], runs[1]

	fmt.Printf("scenario %s: edge RTT %.1fms, cloud RTT %.1fms, Δn %.1fms\n",
		sc.Name, sc.Edge.MeanRTT()*1000, sc.Cloud.MeanRTT()*1000, sc.DeltaN()*1000)
	printWorkload(o, edge)

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
	if o.overflowAt > 0 {
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

// loadTopology resolves -topology — a shipped preset name, an @file
// reference, or an inline JSON spec — and, when -scaler or -admit is
// set, attaches (or replaces) the entry tier's capacity controller and
// admission policy.
func loadTopology(o *options) (cluster.Topology, error) {
	arg := o.topology
	topo, ok := cluster.PresetTopology(arg)
	var err error
	switch {
	case ok:
	case strings.HasPrefix(arg, "@"):
		var data []byte
		if data, err = os.ReadFile(strings.TrimPrefix(arg, "@")); err == nil {
			topo, err = cluster.ParseTopology(data)
		}
	case strings.HasPrefix(strings.TrimSpace(arg), "{"):
		topo, err = cluster.ParseTopology([]byte(arg))
	default:
		err = fmt.Errorf("not a preset (%v), @file, or inline JSON: %q", cluster.TopologyPresets(), arg)
	}
	if err != nil {
		return cluster.Topology{}, err
	}
	if o.scaler != "" {
		spec, err := parseScalerSpec(o.scaler, topo.Tiers[0].ServersPerSite, o.autoscaleMax, o.model.Mu())
		if err != nil {
			return cluster.Topology{}, fmt.Errorf("-scaler: %w", err)
		}
		topo.Tiers[0].Scaler = &spec
	}
	if o.admit != "" {
		spec, err := parseAdmitSpec(o.admit)
		if err != nil {
			return cluster.Topology{}, fmt.Errorf("-admit: %w", err)
		}
		topo.Tiers[0].Admission = &spec
	}
	return topo, nil
}

// parseScalerSpec resolves the -scaler flag: "reactive" or
// "predictive[:forecaster]", with bounds from the starting servers (at
// least 1) to maxFlag, or to 4× the starting servers when the
// -autoscale-max flag is unset.
func parseScalerSpec(arg string, minServers, maxFlag int, mu float64) (autoscale.Spec, error) {
	lo, hi := max(minServers, 1), maxFlag
	if hi <= 0 {
		hi = 4 * lo
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
		spec = autoscale.DefaultReactiveSpec(lo, hi)
	case autoscale.PolicyPredictive:
		spec = autoscale.DefaultPredictiveSpec(lo, hi, mu, forecaster)
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
			var err error
			switch k {
			case "rate":
				spec.Rate, err = strconv.ParseFloat(v, 64)
			case "burst":
				spec.Burst, err = strconv.ParseFloat(v, 64)
			case "threshold":
				spec.Threshold, err = strconv.Atoi(v)
			case "cutoff":
				spec.Cutoff, err = strconv.Atoi(v)
			default:
				return admit.Spec{}, fmt.Errorf("unknown parameter %q (want rate, burst, threshold, cutoff)", k)
			}
			if err != nil {
				return admit.Spec{}, fmt.Errorf("%s: %v", k, err)
			}
		}
	}
	return spec, spec.Validate()
}

// runTopology replays a workload through the deployment graph and
// prints aggregate and per-tier latency/spill/drop/cost metrics. The
// workload is generated on the fly from the rate flags, or decoded row
// by row from a -trace / -azure file; nothing trace-sized is ever held,
// so -duration can describe 10⁸+ requests on a laptop (pair with
// -summary bounded). With a positive shard resolution the replay fans
// out across engines via cluster.RunPipelined, bit-identical for every
// shard count.
func runTopology(o *options) {
	topo := o.topo
	nShards, err := cluster.ResolveShards(o.shardSetting(), topo, 1)
	if err != nil {
		fail("-shards: %v", err)
	}
	if o.verbose && !o.set["shards"] {
		why := fmt.Sprintf("%d sharded engines (one per CPU)", nShards)
		if nShards == 0 {
			why = fmt.Sprintf("falling back to the classic single engine: %v", cluster.Shardable(topo))
		}
		fmt.Fprintln(os.Stderr, "edgesim: -shards auto: "+why)
	}
	// Home-routed ingress fixes the trace's site count; a dispatcher
	// ingress (a pure-cloud graph) uses the -sites flag.
	ingress := topo.Tiers[0]
	genSites := o.sites
	perSite := o.servers
	homeIngress := ingress.Dispatch == ""
	if homeIngress {
		genSites = ingress.Sites
		if ingress.ServersPerSite > 0 {
			perSite = ingress.ServersPerSite
		}
	}
	gw, err := resolveGenWorkers(o.genWorkers, genSites, o.verbose)
	if err != nil {
		fail("%v", err)
	}
	opts := cluster.Options{
		Warmup:     o.warmup,
		Seed:       o.seed + 1,
		Summary:    o.summary,
		GenWorkers: gw,
	}
	if o.rejectPenalty != 0 {
		pricing := econ.DefaultPricing()
		pricing.RejectPenalty = o.rejectPenalty
		opts.Pricing = &pricing
	}
	var res *cluster.TopologyResult
	switch {
	case o.replaysFile():
		// Replay a decoded file. Home ingress pins the site count: the
		// request decoder turns out-of-range sites into decode errors,
		// and the Azure header must declare exactly the home count. A
		// dispatcher-only graph takes whatever sites the file carries
		// (pre-scanned only when sharding needs the count up front).
		limit, fileSites := 0, 0
		switch {
		case o.azure != "":
			fileSites, err = o.azureSites()
			if err != nil {
				die("-%s: %v", o.inputLabel(), err)
			}
			if homeIngress && fileSites != genSites {
				fail("-azure: file has %d sites but topology %q expects %d",
					fileSites, topo.Name, genSites)
			}
		case homeIngress:
			limit, fileSites = genSites, genSites
		case nShards > 0:
			ws, err := scanWorkload(o.factory(0))
			if err != nil {
				die("-%s: %v", o.inputLabel(), err)
			}
			fileSites = ws.sites
		}
		factory := o.factory(limit)
		if nShards > 0 {
			nShards = min(nShards, fileSites)
			res, err = cluster.RunPipelined(cluster.SourceShards(factory, fileSites), topo, opts, nShards)
		} else {
			res, err = cluster.Run(factory(), topo, opts)
		}
	default:
		spec := o.genSpec(genSites, perSite)
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
	switch {
	case err != nil && o.replaysFile():
		die("-%s: %v", o.inputLabel(), err)
	case err != nil:
		die("-topology: %v", err)
	case o.replaysFile():
		if err := checkSpan(o.inputLabel(), res.Offered, res.Duration, o.warmup); err != nil {
			fail("%v", err)
		}
	}

	fmt.Printf("topology %s: %d tiers, %d spill edges, %d classes\n",
		res.Label, len(topo.Tiers), len(topo.Spills), len(topo.Classes))
	if nShards > 0 {
		fmt.Printf("engine: %d sharded engines streaming into the shared phase (bit-identical for any shard count)\n", nShards)
	}
	printWorkload(o, res)

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

// genSpec is the generated workload the flags describe over sites
// sites of perSite servers each.
func (o *options) genSpec(sites, perSite int) cluster.GenSpec {
	return cluster.GenSpec{Sites: sites, Duration: o.duration, PerSiteRate: o.rate * float64(perSite),
		ArrivalSCV: o.arrivalSCV, Model: o.model, Seed: o.seed}
}

// printWorkload prints the workload banner from a run's result: what
// it replayed, how many requests over how long.
func printWorkload(o *options, res *cluster.TopologyResult) {
	aggRate := 0.0
	if res.Duration > 0 {
		aggRate = float64(res.Offered) / res.Duration
	}
	if o.replaysFile() {
		fmt.Printf("workload (%s): %d requests over %.0fs (%.1f req/s aggregate)\n\n",
			o.inputLabel(), res.Offered, res.Duration, aggRate)
		return
	}
	fmt.Printf("workload (streamed): %d requests over %.0fs (%.1f req/s aggregate), never materialized\n\n",
		res.Offered, res.Duration, aggRate)
}

// runTopologySweepCLI sweeps request rates through the deployment
// graph (the ROADMAP's topology-sweep CLI): per-rate aggregate and
// per-tier tables, plus the inversion crossover against a pooled cloud
// of equal total capacity on the -scenario's cloud path — the paper's
// edge-vs-cloud question generalized to arbitrary hierarchies.
func runTopologySweepCLI(o *options) {
	topo, sc := o.topo, o.sc
	rates, err := parseRates(o.sweep)
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
		switch {
		case t.Scaler != nil:
			total += t.Sites * t.Scaler.Max
		case t.PerSiteServers != nil:
			for _, s := range t.PerSiteServers {
				total += s
			}
		default:
			total += t.Sites * max(t.ServersPerSite, 1)
		}
	}
	baseline := cluster.Topology{Name: "cloud", Tiers: []cluster.Tier{cluster.CloudTier(total, sc.Cloud, "")}}
	sweepCfg := experiments.TopologySweepConfig{
		Topology:   topo,
		Rates:      rates,
		Duration:   o.duration,
		Warmup:     o.warmup,
		Seed:       o.seed,
		Model:      o.model,
		ArrivalSCV: o.arrivalSCV,
		Summary:    o.summary,
		Rivals:     []cluster.Topology{baseline},
	}
	if !o.replaysFile() {
		sweepCfg.Shards = o.shardSetting()
	} else {
		// Source-driven sweeps replay one engine per point: a factory
		// cannot be split into per-site ranges.
		if o.shards != 0 {
			fail("-shards cannot combine with a %s sweep: a source factory cannot be split into site ranges", o.inputFlag())
		}
		// A recorded trace carries one rate; the sweep replays it with
		// its timeline rescaled so the aggregate rate lands on each
		// swept point (service demands untouched). One pre-scan measures
		// the native rate and validates the file end to end.
		limit := 0
		if ingress := topo.Tiers[0]; ingress.Dispatch == "" {
			limit = ingress.Sites
		}
		ws, err := scanWorkload(o.factory(limit))
		if err != nil {
			die("-%s: %v", o.inputLabel(), err)
		}
		if limit > 0 && o.azure != "" && ws.sites != limit {
			fail("-azure: file has %d sites but topology %q expects %d", ws.sites, topo.Name, limit)
		}
		if err := checkSweepSpans(o.inputLabel(), ws, topo, rates, o.warmup); err != nil {
			fail("-sweep: %v", err)
		}
		factory := o.factory(limit)
		sweepCfg.Source = func(spec cluster.GenSpec) cluster.Source {
			target := spec.PerSiteRate * float64(spec.Sites)
			return trace.TimeScale(factory(), ws.rate/target)
		}
		fmt.Printf("workload (%s): %d requests over %.0fs (%.1f req/s aggregate native), rescaled per swept rate\n",
			o.inputLabel(), ws.n, ws.dur, ws.rate)
	}
	res, err := experiments.RunTopologySweep(sweepCfg)
	if err != nil {
		die("-sweep: %v", err)
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
func runGridCLI(o *options) {
	rates, err := parseRates(o.grid)
	if err != nil {
		fail("-grid: %v", err)
	}
	budgets, err := parseInts(o.gridBudgets)
	if err != nil {
		fail("-grid-budgets: %v", err)
	}
	depths, err := parseInts(o.gridDepths)
	if err != nil {
		fail("-grid-depths: %v", err)
	}
	gw, err := resolveGenWorkers(o.genWorkers, o.sites, o.verbose)
	if err != nil {
		fail("%v", err)
	}
	res, err := experiments.RunGrid(experiments.GridConfig{
		Sites:        o.sites,
		Rates:        rates,
		Budgets:      budgets,
		Depths:       depths,
		Replications: o.gridReps,
		Duration:     o.duration,
		Warmup:       o.warmup,
		Seed:         o.seed,
		Model:        o.model,
		ArrivalSCV:   o.arrivalSCV,
		Summary:      o.summary,
		GenWorkers:   gw,
	})
	if err != nil {
		die("-grid: %v", err)
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
