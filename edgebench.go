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
// This package re-exports only what the walkthroughs in examples/ use,
// and `go test ./examples/...` checks what each of them prints:
//
//   - Analytic: the paper's inversion bounds and §5 provisioning rules.
//     Deployment's cutoff is shown by examples/quickstart, and
//     TwoSigmaCapacity and PlanEdgeCapacity by examples/capacity-planner.
//     cmd/inversion prints every lemma and corollary for one deployment.
//
//   - Simulation: a discrete-event simulator of edge and cloud
//     deployments, which substitutes for the paper's EC2 testbed. A
//     Topology of Tiers runs through RunTopology, or several at once
//     through RunBroadcast (examples/quickstart); SpillEdge overflow and
//     jittered paths are in examples/three-tier, skewed load in
//     examples/geo-loadbalance, and a ScalerSpec in
//     examples/capacity-planner.
//
//   - Experiments: the paper's trace-driven runs. Each runner returns
//     the engine's TopologyResults: RunAzureReplay one per deployment
//     (examples/azure-replay), RunScalerComparison one per scaler
//     policy, labelled with the policy (examples/predictive-edge);
//     cmd/figures regenerates every figure.
//
// The live testbed (a net/http inference-service emulator and load
// generator) is not re-exported: cmd/loadtest drives it.
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
	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ---- Analytic layer (internal/theory) ----

// Deployment describes one edge-vs-cloud comparison instance; its
// methods implement the paper's lemmas and corollaries.
type Deployment = theory.Deployment

// §5 provisioning rules: the two-sigma capacity comparison and the
// per-site plan that avoids inversion.
var (
	TwoSigmaCapacity = theory.TwoSigmaCapacity
	PlanEdgeCapacity = theory.PlanEdgeCapacity
)

// ---- Application and network models (internal/app, internal/netem) ----

// NewInferenceModel returns the paper's c5a.xlarge DNN service model
// (saturation at 13 req/s).
var NewInferenceModel = app.NewInferenceModel

// SaturationRate is the paper's measured 13 req/s saturation throughput.
const SaturationRate = app.SaturationRate

// ScenarioByName looks up one of the paper's edge/cloud network
// scenarios; JitteredPath builds a path with random jitter.
var (
	ScenarioByName = netem.ScenarioByName
	JitteredPath   = netem.Jittered
)

// ---- Simulation layer (internal/cluster) ----

// GenSpec describes a synthetic workload; Stream generates it.
type GenSpec = cluster.GenSpec

// Topology is a declarative deployment graph: tiers connected by spill
// edges, executed by RunTopology. The paper's edge is a one-tier
// Topology of home-routed sites, its cloud a one-tier Topology holding
// CloudTier.
type Topology = cluster.Topology

// Tier is one layer of a deployment graph.
type Tier = cluster.Tier

// SpillEdge forwards overloaded requests between tiers.
type SpillEdge = cluster.SpillEdge

// TopologyOptions configures one topology run.
type TopologyOptions = cluster.Options

// TopologyResult is a topology run: aggregate Result plus per-tier
// breakdowns and request-conservation counters.
type TopologyResult = cluster.TopologyResult

// Variant is one deployment of a broadcast replay: a labeled Topology
// and its run options.
type Variant = cluster.Variant

// ScalerSpec declaratively selects and parameterizes a per-site
// capacity scaler. A Tier carrying one gets its controller built and
// run by RunTopology.
type ScalerSpec = autoscale.Spec

// CentralQueue is the Tier.Dispatch value for one pooled queue; the
// other dispatch values are the lb policy names (round-robin,
// least-connections, power-of-two, random).
const CentralQueue = cluster.CentralQueueDispatch

// Simulation entry points. Stream generates a spec's records on the
// fly in O(sites) memory; RunTopology replays them through one
// Topology, RunBroadcast through several from one generation pass.
var (
	Stream       = cluster.Stream
	RunTopology  = cluster.Run
	RunBroadcast = cluster.RunBroadcast
	CloudTier    = cluster.CloudTier
)

// ---- Workload generators (internal/workload, internal/trace) ----

// ArrivalProcess produces a monotone sequence of request arrival times.
type ArrivalProcess = workload.ArrivalProcess

// Arrival processes, spatial skew and the Azure-like workload's
// parameters.
var (
	NewPoissonArrivals = workload.NewPoisson
	ZipfPartition      = workload.Zipf
	DefaultAzureSpec   = trace.DefaultAzureSpec
)

// ---- Experiments (internal/experiments) ----

// ScalerComparisonConfig sweeps scaler policies (reactive vs
// predictive × forecaster) over one time-varying workload.
type ScalerComparisonConfig = experiments.ScalerComparisonConfig

// Experiment runners: the §4.5 Azure trace replay and the scaler
// policy comparison.
var (
	RunAzureReplay      = experiments.RunAzureReplay
	RunScalerComparison = experiments.RunScalerComparison
)
