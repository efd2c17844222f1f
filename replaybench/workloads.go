package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/admit"
	"repro/internal/app"
	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/theory"
	"repro/internal/trace"
)

// workload is one named benchmark workload. setup builds the pass
// inputs from the seed; pass replays them once through the workload's
// entry point, pulling every source through taps; oracle replays the
// reference path, checks ref against it and returns its throughput in
// simulated requests per host second.
type workload interface {
	name() string
	procs() int
	warmup() float64
	setup(seed int64) error
	pass(taps *tapSet, tr *tracer) (*passOut, error)
	oracle(ref *passOut, c *checker, tr *tracer) (float64, error)
	answer(w io.Writer, ref *passOut)
	shape() (*layerShape, error)
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
func workloadNames() []string {
	return []string{"paper-pair-1core", "etb-hierarchy-2core", "azure-whatif-2core"}
}

// newWorkload returns the named workload. scale multiplies its
// simulated duration and warmup; the benchmark runs at 1, and tests at
// a small scale for smoke runs.
func newWorkload(name string, scale float64) (workload, error) {
	switch name {
	case "paper-pair-1core":
		return &paperPair{scale: scale}, nil
	case "etb-hierarchy-2core":
		return &etbHierarchy{scale: scale}, nil
	case "azure-whatif-2core":
		return &azureWhatIf{scale: scale}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// layerShape is what the isolated layer calls of a traced run need
// from a workload: its own records and the shape of its deployment.
type layerShape struct {
	recs    []cluster.RequestRecord // the workload's records, in replay order
	gen     func() cluster.Source   // a fresh generator, for a workload that replays a recorded trace
	mode    stats.Mode              // latency digest memory model
	sites   int                     // entry-tier stations
	servers int                     // servers per entry-tier station
	pool    int                     // stations behind the load balancer
	admit   admit.Spec              // admission policy the isolated call decides with
	fanout  int                     // replays per pass
	adds    float64                 // digest adds per served request

	// Where the layers work in situ, for the ns/request budget: the
	// replay and tier whose requests pass the load balancer, the
	// replay whose requests pass admission, and whether spilled
	// records cross a merge.Group (pipelined) or every record a
	// merge.Fan (broadcast).
	lbReplay, lbTier string
	admitReplay      string
	grouped, fanned  bool
}

// maxShapeRecs caps the records an isolated layer call replays.
const maxShapeRecs = 200_000

// tierMs returns a tier's (or the aggregate's) mean, p50 and p99
// end-to-end latency in ms.
func tierMs(d *stats.Digest) (mean, p50, p99 float64) {
	return d.Mean() * 1000, d.Quantile(0.5) * 1000, d.Quantile(0.99) * 1000
}

// verdict names which deployment a user should prefer by mean latency.
func verdict(edgeMean, cloudMean float64) string {
	if cloudMean < edgeMean {
		return "inverted: the cloud beats the edge"
	}
	return "not inverted: the edge beats the cloud"
}

// ---------------------------------------------------------------------
// paper-pair-1core: the paper's core edge-vs-cloud comparison.

const (
	paperSites    = 5
	paperRate     = 20.0 // req/s per site: ρ ≈ 0.77 on 2 servers at μ = 13
	paperServers  = 2
	paperDuration = 2000.0 // simulated seconds: ~200k records per replay
	paperWarmup   = 100.0
)

const paperEdgeSpec = `{
  "name": "paper-edge",
  "tiers": [{"name": "edge", "sites": 5, "servers": 2, "rttMs": 1, "jitterMs": 0.2}]
}`

const paperCloudSpec = `{
  "name": "paper-cloud",
  "tiers": [{"name": "cloud", "sites": 1, "servers": 10, "rttMs": 25, "jitterMs": 3,
             "dispatch": "central-queue"}]
}`

// paperPair replays one renewal stream (the paper's arrival and service
// SCVs) through a 5-site × 2-server edge on a 1 ms path and through a
// pooled 10-server central-queue cloud on the typical 25 ms path.
type paperPair struct {
	scale       float64
	spec        cluster.GenSpec
	edge, cloud cluster.Topology
	opts        cluster.Options
}

func (p *paperPair) name() string    { return "paper-pair-1core" }
func (p *paperPair) procs() int      { return 1 }
func (p *paperPair) warmup() float64 { return paperWarmup * p.scale }
func (p *paperPair) setup(seed int64) error {
	edge, err := cluster.ParseTopology([]byte(paperEdgeSpec))
	if err != nil {
		return err
	}
	cloud, err := cluster.ParseTopology([]byte(paperCloudSpec))
	if err != nil {
		return err
	}
	p.edge, p.cloud = edge, cloud
	p.spec = cluster.GenSpec{Sites: paperSites, Duration: paperDuration * p.scale, PerSiteRate: paperRate, Seed: seed}
	// Stream derives and validates the arrival processes: a bad spec
	// fails here, in set-up, rather than in the first pass.
	cluster.Stream(p.spec)
	p.opts = cluster.Options{Warmup: p.warmup(), Seed: seed, Summary: stats.Exact}
	return nil
}

func (p *paperPair) pass(taps *tapSet, tr *tracer) (*passOut, error) {
	out := &passOut{}
	for _, topo := range []cluster.Topology{p.edge, p.cloud} {
		opts := p.opts
		if tr != nil {
			opts.Probe = tr.probe()
		}
		src := taps.pull(cluster.Stream(p.spec))
		res, err := cluster.Run(src, topo, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", topo.Name, err)
		}
		out.add(topo.Name, res, src.n, src.warm)
		out.generated += src.n
	}
	return out, nil
}

// oracle: the pair is the serial path itself, so there is nothing to
// compare it with beyond the same-seed passes every run checks.
func (p *paperPair) oracle(*passOut, *checker, *tracer) (float64, error) { return 0, nil }

func (p *paperPair) answer(w io.Writer, ref *passOut) {
	em, e50, e99 := tierMs(&ref.replays[0].res.EndToEnd)
	cm, c50, c99 := tierMs(&ref.replays[1].res.EndToEnd)
	d := theory.Deployment{K: paperSites, ServersPerSite: paperServers, Mu: app.SaturationRate,
		EdgeRTT: 0.0011, CloudRTT: 0.0265}
	cut := d.CutoffUtilizationExactGG(cluster.DefaultArrivalSCV, cluster.DefaultArrivalSCV, app.DefaultServiceSCV)
	fmt.Fprintf(w, "answer: edge  mean %.2f ms  p50 %.2f ms  p99 %.2f ms\n", em, e50, e99)
	fmt.Fprintf(w, "answer: cloud mean %.2f ms  p50 %.2f ms  p99 %.2f ms\n", cm, c50, c99)
	fmt.Fprintf(w, "answer: rho %.3f vs G/G cutoff %.3f; simulated %s\n",
		paperRate/(paperServers*app.SaturationRate), cut, verdict(em, cm))
}

func (p *paperPair) shape() (*layerShape, error) {
	return &layerShape{
		recs:    drain(cluster.Stream(p.spec), maxShapeRecs),
		mode:    stats.Exact,
		sites:   p.edge.Tiers[0].Sites,
		servers: p.edge.Tiers[0].ServersPerSite,
		pool:    p.cloud.Tiers[0].ServersPerSite, // no balancer: as many as the cloud's servers
		admit:   admit.Spec{Policy: admit.TokenBucket, Rate: paperRate},
		fanout:  2,
		adds:    5, // station wait + sojourn, run, tier and home-site end-to-end
	}, nil
}

// ---------------------------------------------------------------------
// etb-hierarchy-2core: a recorded trace replayed on two shards.

const (
	etbSites    = 200
	etbRate     = 16.0  // req/s per site: ρ ≈ 0.62 on 2 servers
	etbDuration = 150.0 // simulated seconds: ~480k records
	etbShards   = 2
	// etbCloudTol bounds how far the pipelined and serial cloud-tier
	// mean latencies may differ: the power-of-two pool draws its
	// choices from a different random stream on each path, so the two
	// agree statistically, not bit for bit.
	etbCloudTol = 0.05
)

// The hierarchy's paths are constant: the pipelined path samples
// network delays from per-site streams and the serial path from one
// stream in generation order, so only constant paths let the two
// replay the home tier and the central queue identically.
const etbSpec = `{
  "name": "etb-hierarchy",
  "tiers": [
    {"name": "edge", "sites": 200, "servers": 2, "rttMs": 1},
    {"name": "regional", "sites": 1, "servers": 6, "rttMs": 13, "dispatch": "central-queue"},
    {"name": "cloud", "sites": 16, "servers": 2, "rttMs": 25, "dispatch": "power-of-two"}
  ],
  "spills": [
    {"from": "edge", "to": "regional", "threshold": 3, "sampleToRtt": true},
    {"from": "regional", "to": "cloud", "threshold": 8, "sampleToRtt": true}
  ]
}`

// etbHierarchy compiles a ~200-site generated trace to .etb in set-up
// and replays it each pass through RunPipelined over per-shard
// StreamBinary decoders.
type etbHierarchy struct {
	scale float64
	spec  cluster.GenSpec
	topo  cluster.Topology
	opts  cluster.Options
	data  []byte
}

func (e *etbHierarchy) name() string    { return "etb-hierarchy-2core" }
func (e *etbHierarchy) procs() int      { return 2 }
func (e *etbHierarchy) warmup() float64 { return 0 }
func (e *etbHierarchy) setup(seed int64) error {
	topo, err := cluster.ParseTopology([]byte(etbSpec))
	if err != nil {
		return err
	}
	e.topo = topo
	e.spec = cluster.GenSpec{Sites: etbSites, Duration: etbDuration * e.scale, PerSiteRate: etbRate, Seed: seed}
	var buf bytes.Buffer
	if _, err := trace.WriteBinary(&buf, cluster.Stream(e.spec)); err != nil {
		return fmt.Errorf("compile trace: %w", err)
	}
	e.data = buf.Bytes()
	// No warmup: every request is measured, so the serial oracle's
	// per-tier counts must equal the pipelined replay's exactly.
	e.opts = cluster.Options{Seed: seed, Summary: stats.Bounded, NoPerSiteLatency: true}
	return nil
}

func (e *etbHierarchy) decoder(taps *tapSet) cluster.SourceFactory {
	return func() cluster.Source { return taps.scan(trace.StreamBinary(bytes.NewReader(e.data))) }
}

func (e *etbHierarchy) pass(taps *tapSet, tr *tracer) (*passOut, error) {
	out := &passOut{}
	opts := e.opts
	if tr != nil {
		opts.BacklogProbe = func(peak int) { out.backlog = peak }
	}
	src := shardTaps{inner: cluster.SourceShards(e.decoder(taps), etbSites), taps: taps}
	res, err := cluster.RunPipelined(src, e.topo, opts, etbShards)
	if err != nil {
		return nil, err
	}
	n, warm := taps.pulled()
	out.add("pipelined", res, n, warm)
	out.scanned = taps.scanned()
	return out, nil
}

// oracle replays the same trace serially through Run and checks the
// pipelined reference against it.
func (e *etbHierarchy) oracle(ref *passOut, c *checker, tr *tracer) (float64, error) {
	taps := newTapSet(0, false)
	src := taps.pull(trace.StreamBinary(bytes.NewReader(e.data)))
	opts := e.opts
	if tr != nil {
		opts.Probe = tr.probe()
	}
	t0 := time.Now()
	res, err := cluster.Run(src, e.topo, opts)
	dt := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("serial oracle: %w", err)
	}
	n, warm := taps.pulled()
	checkConservation(c, replay{label: "serial oracle", res: res, pulled: n, warm: warm})
	got := ref.replays[0].res
	checkSameCounts(c, "pipelined vs serial", res, got)
	for i := range res.Tiers {
		if i >= len(got.Tiers) {
			break
		}
		tol := 1e-9
		if res.Tiers[i].Name == "cloud" {
			tol = etbCloudTol
		}
		want, have := res.Tiers[i].EndToEnd.Mean(), got.Tiers[i].EndToEnd.Mean()
		c.check(relClose(want, have, tol), "pipelined vs serial: tier %s mean latency %.6g s, serial %.6g s",
			res.Tiers[i].Name, have, want)
	}
	return float64(res.Offered) / dt, nil
}

func (e *etbHierarchy) answer(w io.Writer, ref *passOut) {
	res := ref.replays[0].res
	for i := range res.Tiers {
		t := &res.Tiers[i]
		m, p50, p99 := tierMs(&t.EndToEnd)
		fmt.Fprintf(w, "answer: tier %-8s served %8d (%5.1f%%)  mean %.2f ms  p50 %.2f ms  p99 %.2f ms\n",
			t.Name, t.Served, 100*float64(t.Served)/float64(res.Offered), m, p50, p99)
	}
	if edge, cloud := res.Tier("edge"), res.Tier("cloud"); edge != nil && cloud != nil {
		fmt.Fprintf(w, "answer: requests the cloud tier served vs those the edge tier served: %s\n",
			verdict(edge.EndToEnd.Mean(), cloud.EndToEnd.Mean()))
	}
}

func (e *etbHierarchy) shape() (*layerShape, error) {
	dec := trace.StreamBinary(bytes.NewReader(e.data))
	recs := drain(dec, maxShapeRecs)
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return &layerShape{
		recs:     recs,
		gen:      func() cluster.Source { return cluster.Stream(e.spec) },
		mode:     stats.Bounded,
		sites:    e.topo.Tiers[0].Sites,
		servers:  e.topo.Tiers[0].ServersPerSite,
		pool:     e.topo.Tiers[2].Sites, // the power-of-two cloud
		admit:    admit.Spec{Policy: admit.TokenBucket, Rate: etbRate},
		fanout:   1,
		adds:     4, // station wait + sojourn, run and tier end-to-end
		lbReplay: "pipelined",
		lbTier:   "cloud",
		grouped:  true,
	}, nil
}

// ---------------------------------------------------------------------
// azure-whatif-2core: one skewed, bursty workload, six deployments.

const (
	azureSites    = 5
	azureMinutes  = 60
	azureBaseLoad = 600.0  // median-site requests per minute: 50 req/s in total
	azureDuration = 2500.0 // simulated seconds: ~150k records
	azureWarmup   = 60.0
)

// azureVariants are the six what-if deployments, in replay order. The
// hetero-paths entry is the shipped preset of that name, spelled out.
var azureVariants = []struct{ label, spec string }{
	{"edge", `{"name": "edge",
  "tiers": [{"name": "edge", "sites": 5, "servers": 2, "rttMs": 1, "jitterMs": 0.2}]}`},
	{"edge-admit", `{"name": "edge-admit",
  "tiers": [{"name": "edge", "sites": 5, "servers": 2, "rttMs": 1, "jitterMs": 0.2,
             "admission": {"policy": "token-bucket", "rate": 20, "burst": 40}}]}`},
	{"edge-overflow", `{"name": "edge-overflow",
  "tiers": [{"name": "edge", "sites": 5, "servers": 2, "rttMs": 1, "jitterMs": 0.2},
            {"name": "cloud", "sites": 1, "servers": 5, "rttMs": 25, "jitterMs": 3, "dispatch": "central-queue"}],
  "spills": [{"from": "edge", "to": "cloud", "threshold": 4, "sampleToRtt": true}]}`},
	{"hetero-paths", `{"name": "hetero-paths",
  "tiers": [{"name": "edge", "sites": 5, "servers": 1, "rttMs": 1, "jitterMs": 0.2,
             "perSiteRttMs": [1, 1, 1, 8, 40]},
            {"name": "regional", "sites": 1, "servers": 2, "rttMs": 13, "jitterMs": 2,
             "dispatch": "central-queue",
             "scaler": {"policy": "reactive", "intervalS": 5, "min": 2, "max": 8,
                        "up": 1.5, "down": 0.3, "cooldownS": 15}}],
  "spills": [{"from": "edge", "to": "regional", "threshold": 3, "sampleToRtt": true}]}`},
	{"cloud-p2c", `{"name": "cloud-p2c",
  "tiers": [{"name": "cloud", "sites": 10, "servers": 1, "rttMs": 25, "jitterMs": 3,
             "dispatch": "power-of-two"}]}`},
	{"cloud-central", `{"name": "cloud-central",
  "tiers": [{"name": "cloud", "sites": 1, "servers": 10, "rttMs": 25, "jitterMs": 3,
             "dispatch": "central-queue"}]}`},
}

// azureWhatIf generates an Azure-shaped NHPP workload once per pass and
// fans it out to six deployment variants through RunBroadcast.
type azureWhatIf struct {
	scale    float64
	series   []trace.SiteSeries
	spec     cluster.GenSpec
	variants []cluster.Variant
}

func (a *azureWhatIf) name() string    { return "azure-whatif-2core" }
func (a *azureWhatIf) procs() int      { return 2 }
func (a *azureWhatIf) warmup() float64 { return azureWarmup * a.scale }
func (a *azureWhatIf) setup(seed int64) error {
	a.variants = a.variants[:0]
	for _, v := range azureVariants {
		topo, err := cluster.ParseTopology([]byte(v.spec))
		if err != nil {
			return fmt.Errorf("variant %s: %w", v.label, err)
		}
		a.variants = append(a.variants, cluster.Variant{
			Label:    v.label,
			Topology: topo,
			Opts:     cluster.Options{Warmup: a.warmup(), Seed: seed, Summary: stats.Exact, NoPerSiteLatency: true},
		})
	}
	az := trace.DefaultAzureSpec()
	az.Sites, az.Minutes, az.Seed, az.BaseLoad = azureSites, azureMinutes, seed, azureBaseLoad
	a.series = trace.GenerateAzure(az)
	a.spec = cluster.GenSpec{Sites: azureSites, Duration: azureDuration * a.scale, Seed: seed}
	cluster.Stream(a.fresh())
	return nil
}

// fresh returns the generator spec with new arrival processes: NHPP
// processes are stateful, so every stream needs its own.
func (a *azureWhatIf) fresh() cluster.GenSpec {
	spec := a.spec
	spec.Arrivals = trace.ToArrivalProcesses(a.series, true)
	return spec
}

func (a *azureWhatIf) pass(taps *tapSet, tr *tracer) (*passOut, error) {
	variants := a.variants
	if tr != nil {
		variants = append([]cluster.Variant(nil), a.variants...)
		for i := range variants {
			variants[i].Opts.Probe = tr.probe()
		}
	}
	src := taps.pull(cluster.Stream(a.fresh()))
	rs, err := cluster.RunBroadcast(src, variants, 0)
	if err != nil {
		return nil, err
	}
	out := &passOut{generated: src.n}
	for i, res := range rs {
		out.add(variants[i].Label, res, src.n, src.warm)
	}
	return out, nil
}

// oracle replays every variant standalone through Run on a fresh
// stream; each must be bit-identical to its broadcast replay.
func (a *azureWhatIf) oracle(ref *passOut, c *checker, tr *tracer) (float64, error) {
	var requests uint64
	var secs float64
	for i, v := range a.variants {
		opts := v.Opts
		if tr != nil {
			opts.Probe = tr.probe()
		}
		taps := newTapSet(a.warmup(), false)
		src := taps.pull(cluster.Stream(a.fresh()))
		t0 := time.Now()
		res, err := cluster.Run(src, v.Topology, opts)
		secs += time.Since(t0).Seconds()
		if err != nil {
			return 0, fmt.Errorf("standalone %s: %w", v.Label, err)
		}
		requests += res.Offered
		checkConservation(c, replay{label: "standalone " + v.Label, res: res, pulled: src.n, warm: src.warm})
		c.check(fingerprint(res) == fingerprint(ref.replays[i].res),
			"broadcast variant %s differs from its standalone Run", v.Label)
	}
	return float64(requests) / secs, nil
}

func (a *azureWhatIf) answer(w io.Writer, ref *passOut) {
	meanSkew, maxSkew := trace.SkewStats(a.series)
	fmt.Fprintf(w, "answer: site skew mean %.2f max %.2f\n", meanSkew, maxSkew)
	byLabel := map[string]*cluster.TopologyResult{}
	for _, r := range ref.replays {
		m, p50, p99 := tierMs(&r.res.EndToEnd)
		fmt.Fprintf(w, "answer: %-14s mean %8.2f ms  p50 %7.2f ms  p99 %8.2f ms  rejected %d\n",
			r.label, m, p50, p99, r.res.Rejected)
		byLabel[r.label] = r.res
	}
	edge, cloud := byLabel["edge"], byLabel["cloud-central"]
	fmt.Fprintf(w, "answer: edge vs central-queue cloud under skew: %s\n",
		verdict(edge.EndToEnd.Mean(), cloud.EndToEnd.Mean()))
}

func (a *azureWhatIf) shape() (*layerShape, error) {
	var spec admit.Spec
	var edge, p2c cluster.Topology
	for _, v := range a.variants {
		switch v.Label {
		case "edge":
			edge = v.Topology
		case "edge-admit":
			spec = *v.Topology.Tiers[0].Admission
		case "cloud-p2c":
			p2c = v.Topology
		}
	}
	return &layerShape{
		recs:        drain(cluster.Stream(a.fresh()), maxShapeRecs),
		mode:        stats.Exact,
		sites:       edge.Tiers[0].Sites,
		servers:     edge.Tiers[0].ServersPerSite,
		pool:        p2c.Tiers[0].Sites,
		admit:       spec,
		fanout:      len(a.variants),
		adds:        4, // station wait + sojourn, run and tier end-to-end
		lbReplay:    "cloud-p2c",
		lbTier:      "cloud",
		admitReplay: "edge-admit",
		fanned:      true,
	}, nil
}
