package cluster

// ShardedSource is a workload that can hand out its record sequence in
// per-site-range slices, the input contract of RunPipelined. Shard(lo, hi)
// must return a fresh time-ordered Source over exactly the records whose
// Site lies in [lo, hi) — with every record identical to the one the
// full sequence carries, so disjoint ranges partition the workload.
// Shards over disjoint ranges may be consumed concurrently.
type ShardedSource interface {
	// Sites reports the workload's site count; RunPipelined partitions
	// [0, Sites) into contiguous ranges.
	Sites() int
	// Shard returns a fresh Source over the sites in [lo, hi).
	Shard(lo, hi int) Source
}

// genShards adapts a GenSpec: each shard re-derives the full per-site
// stream seeding (cheap, O(Sites)) and then generates only its range,
// so per-site sequences are bit-identical for every partition.
type genShards struct {
	spec GenSpec
}

// GenShards adapts a generator spec into a ShardedSource. A spec
// carrying explicit Arrivals must supply one distinct process instance
// per site: the processes are stateful, and concurrent shards advance
// their own sites' instances.
func GenShards(spec GenSpec) ShardedSource {
	// Surface validation errors on the caller's goroutine, not inside a
	// shard worker: deriveArrivals panics on bad specs.
	probe := spec
	deriveArrivals(&probe)
	return genShards{spec: spec}
}

func (g genShards) Sites() int { return g.spec.Sites }

func (g genShards) Shard(lo, hi int) Source { return streamRange(g.spec, lo, hi) }

// sourceShards adapts any SourceFactory — e.g. the streaming CSV and
// Azure decoders — by opening one fresh source per shard and filtering
// to the shard's range. Each shard scans the full sequence (decoders
// are cheap relative to simulation), keeping memory O(1) per shard.
type sourceShards struct {
	factory SourceFactory
	sites   int
}

// SourceShards adapts a source factory into a ShardedSource over the
// given site count. The factory must yield the identical record
// sequence on every call.
func SourceShards(factory SourceFactory, sites int) ShardedSource {
	return sourceShards{factory: factory, sites: sites}
}

func (s sourceShards) Sites() int { return s.sites }

func (s sourceShards) Shard(lo, hi int) Source {
	return &filterSource{src: s.factory(), lo: lo, hi: hi}
}

// filterSource passes through only the records of one site range, and
// surfaces the underlying source's decode error (FallibleSource).
type filterSource struct {
	src    Source
	lo, hi int
}

func (f *filterSource) Next() (RequestRecord, bool) {
	for {
		rec, ok := f.src.Next()
		if !ok {
			return RequestRecord{}, false
		}
		if rec.Site >= f.lo && rec.Site < f.hi {
			return rec, true
		}
	}
}

// Err implements FallibleSource by delegation.
func (f *filterSource) Err() error {
	if fs, ok := f.src.(FallibleSource); ok {
		return fs.Err()
	}
	return nil
}
