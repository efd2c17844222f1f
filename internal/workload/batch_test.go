package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
)

func TestBatchEmitsSizePerEpoch(t *testing.T) {
	b := secondBatches(5)
	rng := rand.New(rand.NewSource(1))
	counts := map[float64]int{}
	tt := 0.0
	for i := 0; i < 20; i++ {
		next, ok := b.Next(tt, rng)
		if !ok {
			t.Fatal("batch exhausted unexpectedly")
		}
		counts[next]++
		tt = next
	}
	// 20 arrivals = 4 full epochs of 5.
	if len(counts) != 4 {
		t.Fatalf("arrival epochs = %v", counts)
	}
	for epoch, n := range counts {
		if n != 5 {
			t.Errorf("epoch %v got %d arrivals, want 5", epoch, n)
		}
	}
}

func TestBatchRate(t *testing.T) {
	b := secondBatches(8)
	if math.Abs(b.Rate()-8) > 1e-9 {
		t.Errorf("batch rate = %v, want 8", b.Rate())
	}
	b2 := NewBatch(NewPoisson(2), 3)
	if math.Abs(b2.Rate()-6) > 1e-9 {
		t.Errorf("batch-over-Poisson rate = %v, want 6", b2.Rate())
	}
}

func TestBatchMonotoneNonDecreasing(t *testing.T) {
	b := NewBatch(NewPoisson(10), 4)
	rng := rand.New(rand.NewSource(2))
	tt := 0.0
	for i := 0; i < 400; i++ {
		next, ok := b.Next(tt, rng)
		if !ok {
			t.Fatal("exhausted")
		}
		if next < tt {
			t.Fatalf("time went backwards: %v -> %v", tt, next)
		}
		tt = next
	}
}

// secondBatches is the paper's generator shape: every second, a batch
// of ratePerSecond requests.
func secondBatches(ratePerSecond int) *Batch {
	return NewBatch(NewRenewal(dist.Deterministic{Value: 1}), ratePerSecond)
}

// epochsAt fires once at each listed time, then ends.
type epochsAt []float64

func (e *epochsAt) Next(t float64, _ *rand.Rand) (float64, bool) {
	for len(*e) > 0 {
		at := (*e)[0]
		*e = (*e)[1:]
		if at > t {
			return at, true
		}
	}
	return 0, false
}

func (e *epochsAt) Rate() float64  { return 0 }
func (e *epochsAt) String() string { return "epochsAt" }

func TestBatchExhaustsWithFiniteEpochs(t *testing.T) {
	b := NewBatch(&epochsAt{1, 2}, 3)
	rng := rand.New(rand.NewSource(3))
	n := 0
	tt := 0.0
	for {
		next, ok := b.Next(tt, rng)
		if !ok {
			break
		}
		tt = next
		n++
	}
	if n != 6 {
		t.Errorf("finite batch produced %d arrivals, want 6", n)
	}
}

func TestBatchPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("batch size 0 should panic")
		}
	}()
	NewBatch(NewPoisson(1), 0)
}

// TestBatchInterArrivalSCVExceedsPoisson: batching inflates the measured
// inter-arrival variability signal that drives Corollary 3.2.1 — here in
// the sense that batch arrivals create far larger instantaneous queue
// bursts than a smooth stream, visible as a bimodal inter-arrival
// distribution (0 within batches, 1s between).
func TestBatchInterArrivalStructure(t *testing.T) {
	b := secondBatches(10)
	rng := rand.New(rand.NewSource(4))
	var zeros, gaps int
	prev := -1.0
	tt := 0.0
	for i := 0; i < 200; i++ {
		next, _ := b.Next(tt, rng)
		if prev >= 0 {
			if next == prev {
				zeros++
			} else {
				gaps++
			}
		}
		prev, tt = next, next
	}
	if zeros == 0 || gaps == 0 {
		t.Errorf("expected both intra-batch (0) and inter-batch gaps: zeros=%d gaps=%d", zeros, gaps)
	}
	if zeros < 8*gaps {
		t.Errorf("intra-batch arrivals should dominate: zeros=%d gaps=%d", zeros, gaps)
	}
}
