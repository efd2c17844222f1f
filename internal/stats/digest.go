package stats

// Mode selects how a Digest stores its observations.
type Mode int

const (
	// Bounded, the zero Mode, keeps its moments in a Stream plus a
	// mergeable log-linear bucket sketch: every quantile lies within
	// 2⁻⁷ ≈ 0.78% relative error of the exact value, merges are exact
	// and order-independent, and memory is bounded by the data's dynamic
	// range (about 64 × 4 B per octave spanned), not by its count.
	Bounded Mode = iota
	// Exact retains every observation in a Sample: exact quantiles,
	// 8 B per observation, held in fixed blocks until the first
	// quantile read folds them into one slice. It keeps no running
	// moments: a read derives them from the sample. It is the reference
	// the sketch is checked against.
	Exact
)

// String names the mode.
func (m Mode) String() string {
	if m == Exact {
		return "exact"
	}
	return "bounded"
}

// Digest is a latency collector with a selectable memory model: Bounded
// mode keeps a Stream and a log-linear bucket sketch, Exact mode wraps a
// Sample (every observation retained). The zero value is an empty
// Bounded digest, ready to use; its sketch is allocated at the first Add
// or Merge.
//
// Its count, mean, variance, min and max are the Stream's for the same
// observations in both modes: correctly rounded functions of the
// multiset, the same bits for every add order, merge tree and mode.
//
// A Digest is a value type but shares internal state with its copies;
// copy one only after the run that fills it has finished. Merged shares
// a lone non-empty part the same way, so the digests of a finished run
// result may share state with each other (a one-tier run's aggregate is
// its tier's): treat them as read-only, and Merged or Merge them into a
// new digest rather than into one of them.
type Digest struct {
	mode Mode
	// stream holds the moments in Bounded mode. In Exact mode it caches
	// the sample's, derived at the first read after an Add or Merge: it
	// is current while its count is the sample's.
	stream Stream
	sample *Sample // Exact mode, lazily allocated
	sketch *sketch // Bounded mode, lazily allocated
}

// NewDigest returns an empty digest in the given mode. In Exact mode a
// positive sizeHint sizes the sample's first block, so up to sizeHint
// observations fold without a copy (0 is fine); Bounded ignores it.
func NewDigest(mode Mode, sizeHint int) Digest {
	d := Digest{mode: mode}
	if mode == Exact && sizeHint > 0 {
		d.sample = NewSample(sizeHint)
	}
	return d
}

// Mode reports the digest's memory model.
func (d *Digest) Mode() Mode { return d.mode }

// Add records one observation.
func (d *Digest) Add(x float64) {
	if d.mode == Exact {
		if d.sample == nil {
			d.sample = &Sample{}
		}
		d.sample.Add(x)
		return
	}
	d.stream.Add(x)
	if d.sketch == nil {
		d.sketch = &sketch{}
	}
	d.sketch.add(x)
}

// Merge folds other into d. Two Exact digests merge exactly. When either
// side is Bounded, d becomes Bounded: every retained Exact observation
// is added to its stream and sketch, and two sketches merge by summing
// buckets. Neither the moments nor the quantiles of the result depend
// on merge order.
func (d *Digest) Merge(other *Digest) {
	if other.N() == 0 {
		return
	}
	if d.mode == Exact && other.mode == Exact {
		if d.sample == nil {
			d.sample = &Sample{}
		}
		d.sample.Merge(other.sample)
		return
	}
	if d.mode == Exact {
		// The cached stream may be shared with a copy of d: start anew.
		exact := d.sample
		d.mode, d.stream, d.sample = Bounded, Stream{}, nil
		d.addAll(exact)
	}
	if other.mode == Exact {
		d.addAll(other.sample)
		return
	}
	if d.sketch == nil {
		d.sketch = &sketch{}
	}
	d.sketch.merge(other.sketch)
	d.stream.Merge(&other.stream)
}

// addAll adds every observation smp retains, which may be nil, to a
// Bounded d.
func (d *Digest) addAll(smp *Sample) {
	if smp == nil {
		return
	}
	for _, b := range smp.full {
		for _, x := range b {
			d.Add(x)
		}
	}
	for _, x := range smp.xs {
		d.Add(x)
	}
}

// moments returns the stream holding d's moments, deriving an Exact
// digest's from its sample when the cached one is stale.
func (d *Digest) moments() *Stream {
	if d.mode == Exact && d.stream.N() != int64(d.N()) {
		d.stream = d.sample.moments()
	}
	return &d.stream
}

// Merged returns the merge of parts, in order. With exactly one
// non-empty part it returns that part itself, sharing its state: merging
// one digest into an empty one would copy its moments bit for bit and
// its observations unchanged. With none it returns an empty digest in
// the first part's mode (the zero value when there are no parts).
// Otherwise it merges every part into one new digest, as sequential
// Merge calls into an empty Exact digest would: the result is Bounded
// when any non-empty part is, and an Exact result allocates its sample
// once, at the final size.
func Merged(parts ...*Digest) Digest {
	var (
		last  *Digest
		n     int          // non-empty parts
		total int          // their observations
		mode  Mode = Exact // Bounded when any non-empty part is
	)
	for _, p := range parts {
		if p.N() == 0 {
			continue
		}
		last, n, total = p, n+1, total+p.N()
		if p.mode == Bounded {
			mode = Bounded
		}
	}
	switch {
	case n == 1:
		return *last
	case n == 0 && len(parts) == 0:
		return Digest{}
	case n == 0:
		return NewDigest(parts[0].mode, 0)
	}
	out := NewDigest(mode, total)
	for _, p := range parts {
		out.Merge(p)
	}
	return out
}

// N returns the number of observations recorded.
func (d *Digest) N() int {
	if d.mode == Bounded {
		return int(d.stream.N())
	}
	if d.sample == nil {
		return 0
	}
	return d.sample.N()
}

// Mean returns the arithmetic mean, or 0 when empty.
func (d *Digest) Mean() float64 { return d.moments().Mean() }

// StdDev returns the sample standard deviation.
func (d *Digest) StdDev() float64 { return d.moments().StdDev() }

// Variance returns the unbiased sample variance.
func (d *Digest) Variance() float64 { return d.moments().Variance() }

// Min returns the smallest observation, or 0 when empty.
func (d *Digest) Min() float64 { return d.moments().Min() }

// Max returns the largest observation, or 0 when empty.
func (d *Digest) Max() float64 { return d.moments().Max() }

// Quantile returns the q-th quantile. Exact mode computes it from the
// retained sample. Bounded mode reads it from the sketch, within 2⁻⁷
// relative error of the exact value for positive observations, with
// q ≤ 0 and q ≥ 1 giving the true min and max.
func (d *Digest) Quantile(q float64) float64 {
	if d.mode == Exact {
		if d.sample == nil {
			return 0
		}
		return d.sample.Quantile(q)
	}
	if d.stream.N() == 0 {
		return 0
	}
	if q <= 0 {
		return d.stream.Min()
	}
	if q >= 1 {
		return d.stream.Max()
	}
	return d.sketch.quantile(q, d.stream.N(), d.stream.Min(), d.stream.Max())
}

// Median returns the 50th percentile.
func (d *Digest) Median() float64 { return d.Quantile(0.5) }

// P95 returns the 95th percentile, the paper's tail-latency metric.
func (d *Digest) P95() float64 { return d.Quantile(0.95) }

// P99 returns the 99th percentile.
func (d *Digest) P99() float64 { return d.Quantile(0.99) }

// Box computes the box-plot summary. Bounded mode builds the
// five-number summary from the sketch and leaves Outliers at 0 (the
// sketch keeps no individual values to count beyond the fences); Exact
// mode delegates to BoxPlotOf, outlier count included.
func (d *Digest) Box(label string) BoxPlot {
	if d.mode == Exact {
		if d.sample == nil {
			return BoxPlot{Label: label}
		}
		return BoxPlotOf(label, d.sample)
	}
	bp := BoxPlot{Label: label, N: d.N()}
	if bp.N == 0 {
		return bp
	}
	bp.Min = d.stream.Min()
	bp.Q1 = d.Quantile(0.25)
	bp.Median = d.Quantile(0.5)
	bp.Q3 = d.Quantile(0.75)
	bp.Max = d.stream.Max()
	bp.Mean = d.Mean()
	iqr := bp.Q3 - bp.Q1
	bp.LowerFence = max(bp.Min, bp.Q1-1.5*iqr)
	bp.UpperFence = min(bp.Max, bp.Q3+1.5*iqr)
	return bp
}

// Summarize computes a DistSummary at the given probes (nil = 1%..99%).
// Bounded mode reads each probe from the sketch.
func (d *Digest) Summarize(label string, probes []float64) DistSummary {
	if d.mode == Exact {
		s := d.sample
		if s == nil {
			s = &Sample{}
		}
		return SummarizeDist(label, s, probes)
	}
	if probes == nil {
		probes = make([]float64, 0, 99)
		for i := 1; i <= 99; i++ {
			probes = append(probes, float64(i)/100)
		}
	}
	out := DistSummary{Label: label, N: d.N(), Mean: d.Mean(), StdDev: d.StdDev()}
	if out.Mean != 0 {
		out.CoV = out.StdDev / out.Mean
	}
	for _, q := range probes {
		out.Quantiles = append(out.Quantiles, QuantilePoint{Q: q, Value: d.Quantile(q)})
	}
	return out
}
