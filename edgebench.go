// Package edgebench reproduces "The hidden cost of the edge: a
// performance comparison of edge and cloud latencies" (Ali-Eldin, Wang,
// Shenoy; SC 2021, arXiv:2104.14050) as a reusable Go library.
//
// It answers one question for application designers: given an edge
// deployment (k geo-distributed sites, one queue each) and a cloud
// deployment (the same servers behind one queue), at what utilization
// does the edge's queueing delay overwhelm its network-latency advantage
// — the paper's "performance inversion"?
//
// The library has three layers, all re-exported here:
//
//   - Analytic: closed-form queueing results and the paper's inversion
//     bounds (Lemmas 3.1–3.3, Corollaries 3.1.1–3.1.3, 3.2.1, the §5
//     provisioning rules). See Deployment and the theory functions.
//
//   - Simulation: a discrete-event simulator of edge and cloud
//     deployments under synthetic or trace-driven workloads, which
//     substitutes for the paper's EC2 testbed. See Stream, Topology,
//     CloudTier, RunTopology and RunBroadcast.
//
//   - Live testbed: a real net/http inference-service emulator, reverse
//     proxy and open-loop load generator for end-to-end wall-clock
//     experiments on localhost. See the httpserv and loadgen packages
//     via cmd/loadtest.
//
// A minimal inversion check:
//
//	dep := edgebench.Deployment{
//		K: 5, ServersPerSite: 1,
//		Mu: edgebench.NewInferenceModel().Mu(),
//		EdgeRTT: 0.001, CloudRTT: 0.025,
//	}
//	cutoff := dep.CutoffUtilizationExactMM()
//	// run above `cutoff` utilization and the cloud is the better home.
package edgebench

import (
	"repro/internal/app"
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/econ"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/netem"
	"repro/internal/queue"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---- Analytic layer (internal/theory) ----

// Deployment describes one edge-vs-cloud comparison instance; its
// methods implement the paper's lemmas and corollaries.
type Deployment = theory.Deployment

// ProvisionPlan is a per-site capacity plan produced by PlanEdgeCapacity.
type ProvisionPlan = theory.ProvisionPlan

// Closed-form queueing results (see internal/theory for derivations).
var (
	MM1Wait            = theory.MM1Wait
	MM1Sojourn         = theory.MM1Sojourn
	MMcWait            = theory.MMcWait
	MMcSojourn         = theory.MMcSojourn
	ErlangB            = theory.ErlangB
	ErlangC            = theory.ErlangC
	WhittCondWait      = theory.WhittCondWait
	AllenCunneenWait   = theory.AllenCunneenWait
	KingmanWait        = theory.KingmanWait
	SkewedEdgeCondWait = theory.SkewedEdgeCondWait
	TwoSigmaCapacity   = theory.TwoSigmaCapacity
	TwoSigmaServers    = theory.TwoSigmaServers
	MinEdgeServers     = theory.MinEdgeServers
	PlanEdgeCapacity   = theory.PlanEdgeCapacity
)

// ---- Application model (internal/app) ----

// InferenceModel is the calibrated DNN-inference service-time model.
type InferenceModel = app.InferenceModel

// NewInferenceModel returns the paper's c5a.xlarge DNN service model
// (saturation at 13 req/s).
func NewInferenceModel() InferenceModel { return app.NewInferenceModel() }

// NewInferenceModelWith returns a model with explicit mean service time
// (seconds) and squared coefficient of variation.
func NewInferenceModelWith(mean, scv float64) InferenceModel {
	return app.NewInferenceModelWith(mean, scv)
}

// SaturationRate is the paper's measured 13 req/s saturation throughput.
const SaturationRate = app.SaturationRate

// ---- Network model (internal/netem) ----

// Path models one network path's round-trip latency.
type Path = netem.Path

// Scenario pairs an edge path with a cloud path.
type Scenario = netem.Scenario

// Network path constructors and the paper's scenario presets.
var (
	ConstantPath   = netem.Constant
	JitteredPath   = netem.Jittered
	PaperScenarios = netem.PaperScenarios
	ScenarioByName = netem.ScenarioByName
)

// ---- Simulation layer (internal/cluster, internal/queue) ----

// GenSpec describes a synthetic workload; Stream generates it.
type GenSpec = cluster.GenSpec

// Source streams workload records lazily into the replay core, so
// generator sources replay arbitrarily long workloads in O(sites)
// memory.
type Source = cluster.Source

// FallibleSource is a Source that can end on a failure (trace-file
// decoders); RunTopology surfaces its Err instead of returning a
// silently truncated result.
type FallibleSource = cluster.FallibleSource

// SourceFactory hands out fresh Sources over the same record sequence,
// so swept and paired runs each take an independent iterator.
type SourceFactory = cluster.SourceFactory

// SummaryMode selects a run's latency-collection memory model (see
// TopologyOptions.Summary): ExactSummary retains every observation,
// BoundedSummary keeps streaming moments and a mergeable log-bucket
// sketch whose quantiles lie within 0.78% of the exact ones.
type SummaryMode = stats.Mode

// Latency summary memory models.
const (
	ExactSummary   = stats.Exact
	BoundedSummary = stats.Bounded
)

// LatencyDigest is a latency collector with a selectable memory model
// (the type of Result.EndToEnd and friends).
type LatencyDigest = stats.Digest

// Result is one deployment run's aggregate measurements.
type Result = cluster.Result

// SiteResult is one station's measurements (TierResult.Sites).
type SiteResult = cluster.SiteResult

// CentralQueue is the Tier.Dispatch value for one pooled queue; the
// other dispatch values are the lb policy names (round-robin,
// least-connections, power-of-two, random).
const CentralQueue = cluster.CentralQueueDispatch

// Queue service disciplines.
const (
	FCFS = queue.FCFS
	LIFO = queue.LIFO
	SJF  = queue.SJF
)

// ---- Declarative topology layer (internal/cluster) ----

// Topology is a declarative deployment graph: tiers connected by spill
// edges with optional class pinning, executed by RunTopology. The
// paper's edge is a one-tier Topology of home-routed sites, its cloud a
// one-tier Topology holding CloudTier.
type Topology = cluster.Topology

// Tier is one layer of a deployment graph.
type Tier = cluster.Tier

// SpillEdge forwards overloaded requests between tiers.
type SpillEdge = cluster.SpillEdge

// ClassRule pins a traffic class to an entry tier.
type ClassRule = cluster.ClassRule

// TopologyOptions configures one topology run.
type TopologyOptions = cluster.Options

// TopologyResult is a topology run: aggregate Result plus per-tier
// breakdowns and request-conservation counters.
type TopologyResult = cluster.TopologyResult

// TierResult is one tier's share of a topology run.
type TierResult = cluster.TierResult

// TopologySpec is the serializable (JSON) form of a Topology.
type TopologySpec = cluster.TopologySpec

// Variant is one deployment of a broadcast replay: a labeled Topology
// and its run options.
type Variant = cluster.Variant

// Topology entry points: the generic executor, its one-pass fan-out
// over several deployments, the pooled-or-balanced cloud tier, the JSON
// codec and the shipped multi-tier presets.
var (
	RunTopology       = cluster.Run
	RunBroadcast      = cluster.RunBroadcast
	CloudTier         = cluster.CloudTier
	ParseTopology     = cluster.ParseTopology
	ParseTopologySpec = cluster.ParseTopologySpec
	TopologyPresets   = cluster.TopologyPresets
	PresetTopology    = cluster.PresetTopology
)

// ScalerSpec declaratively selects and parameterizes a per-site
// capacity scaler (the paper's future-work direction): reactive
// thresholds or forecast-driven predictive provisioning. A Tier
// carrying one gets its controller built and run by RunTopology.
type ScalerSpec = autoscale.Spec

// ScalerTelemetry summarizes a scaler's activity over a run.
type ScalerTelemetry = autoscale.Telemetry

// Scaler specs: the policy registry (mirroring the lb registry) and
// the standard reactive and predictive parameter sets.
var (
	ScalerPolicies        = autoscale.Policies
	DefaultReactiveSpec   = autoscale.DefaultReactiveSpec
	DefaultPredictiveSpec = autoscale.DefaultPredictiveSpec
)

// Simulation entry points. Stream generates a spec's records on the
// fly in O(sites) memory — the same sequence for the same spec and
// seed — so 10⁸-request replays (with BoundedSummary) never hold a
// trace; StreamFactory re-derives one per run.
var (
	Stream        = cluster.Stream
	StreamFactory = cluster.StreamFactory
)

// ---- Workload and trace generators ----

// ArrivalProcess produces a monotone sequence of request arrival times.
type ArrivalProcess = workload.ArrivalProcess

// Partitioner assigns spatial load weights across edge sites.
type Partitioner = workload.Partitioner

// AzureSpec parameterizes the synthetic Azure-like serverless workload.
type AzureSpec = trace.AzureSpec

// SiteSeries is one site's request-count envelope.
type SiteSeries = trace.SiteSeries

// TaxiSpec parameterizes the synthetic vehicular-mobility workload.
type TaxiSpec = trace.TaxiSpec

// Trace and workload constructors.
var (
	DefaultAzureSpec   = trace.DefaultAzureSpec
	GenerateAzure      = trace.GenerateAzure
	ToArrivalProcesses = trace.ToArrivalProcesses
	DefaultTaxiSpec    = trace.DefaultTaxiSpec
	TaxiCellLoads      = trace.TaxiCellLoads
	CellBoxPlots       = trace.CellBoxPlots
	NewPoissonArrivals = workload.NewPoisson
	NewPacedArrivals   = workload.NewPaced
	UniformPartition   = func(k int) workload.Partitioner { return workload.Uniform{K: k} }
	ZipfPartition      = workload.Zipf
	FitDistToMeanSCV   = dist.FitSCV
)

// ---- Experiments (one per paper figure) ----

// Metric selects mean or p95 for crossover detection.
type Metric = experiments.Metric

// Crossover metrics.
const (
	MeanMetric = experiments.Mean
	P95Metric  = experiments.P95
)

// InversionInterval is a detected span of timeline inversion.
type InversionInterval = experiments.InversionInterval

// ReplicatedPoint is one sweep point aggregated across replications.
type ReplicatedPoint = experiments.ReplicatedPoint

// Experiment runners, one per paper figure/table, plus statistical and
// timeline tooling. PaperPairSweep builds the Figures 3–5 edge/cloud
// pair as a TopologySweepConfig, the config RunReplicatedSweep and
// CrossoverCI take.
var (
	PaperPairSweep     = experiments.PaperPairSweep
	RunFig3            = experiments.RunFig3
	RunFig6            = experiments.RunFig6
	RunFig7            = experiments.RunFig7
	RunAzureReplay     = experiments.RunAzureReplay
	RunValidation      = experiments.RunValidation
	RunCapacityTable   = experiments.RunCapacityTable
	RunReplicatedSweep = experiments.RunReplicatedSweep
	CrossoverCI        = experiments.CrossoverCI
	DetectInversions   = experiments.DetectInversions
	InversionFraction  = experiments.InversionFraction
)

// TopologySweepConfig describes a request-rate sweep over an arbitrary
// deployment topology and its paired rival shapes: the one sweep every
// rate-axis figure runs.
type TopologySweepConfig = experiments.TopologySweepConfig

// TopologySweepResult is a completed topology sweep with per-rival
// crossover detection.
type TopologySweepResult = experiments.TopologySweepResult

// ScalerComparisonConfig sweeps scaler policies (reactive vs
// predictive × forecaster) over one time-varying workload.
type ScalerComparisonConfig = experiments.ScalerComparisonConfig

// ScalerComparisonResult is a completed scaler policy sweep with
// latency, telemetry, and per-tier cost rows.
type ScalerComparisonResult = experiments.ScalerComparisonResult

// Topology experiment runners.
var (
	RunTopologySweep    = experiments.RunTopologySweep
	RunFigThreeTier     = experiments.RunFigThreeTier
	RunScalerComparison = experiments.RunScalerComparison
	DefaultScalerSpecs  = experiments.DefaultScalerSpecs
)

// ---- Extensions: tail analysis, economics, forecasting ----

// Tail-latency closed forms (extending the paper's mean-only analysis)
// and bounded-queue loss models.
var (
	MMcWaitQuantile     = theory.MMcWaitQuantile
	MMcWaitCCDF         = theory.MMcWaitCCDF
	MMcKLossProbability = theory.MMcKLossProbability
	EffectiveThroughput = theory.EffectiveThroughput
)

// Pricing holds per-server-hour prices for the §7 economics model.
type Pricing = econ.Pricing

// CostComparison prices a workload on the edge versus the cloud.
type CostComparison = econ.Comparison

// Economic analysis entry points.
var (
	DefaultPricing       = econ.DefaultPricing
	CompareCost          = econ.Compare
	BreakEvenEdgePremium = econ.BreakEvenEdgePremium
	AutoscaledCost       = econ.AutoscaledCost
)

// Forecaster predicts the next value of a sampled workload series.
type Forecaster = forecast.Forecaster

// ForecastOptions parameterizes registry construction of forecasters.
type ForecastOptions = forecast.Options

// Workload forecasters for predictive capacity allocation, plus the
// by-name registry the declarative scaler specs resolve through.
var (
	NewEWMAForecaster = forecast.NewEWMA
	NewHoltForecaster = forecast.NewHolt
	NewSMAForecaster  = forecast.NewSMA
	EvaluateForecast  = forecast.Evaluate
	ForecasterNames   = forecast.Names
	NewForecaster     = forecast.New
)

// ---- Statistics ----

// Sample collects observations for exact quantiles.
type Sample = stats.Sample

// BoxPlot is a five-number summary.
type BoxPlot = stats.BoxPlot

// MomentStream accumulates running moments (Welford). Stream is the
// workload generator source — see the Simulation entry points.
type MomentStream = stats.Stream
