package workload

import (
	"fmt"
	"math/rand"
)

// Batch converts an epoch process into batch arrivals: at every epoch of
// the underlying process, Size requests arrive simultaneously. This
// models the paper's Gatling workload generator, which "each second ...
// randomly selects a set of images, based on the number of requests
// configured, and sends them" (§4.1) — a highly bursty arrival pattern
// at sub-second scale even though the per-second rate is constant.
type Batch struct {
	Epochs ArrivalProcess
	Size   int

	pending int
	epochT  float64
}

// NewBatch wraps epochs so each fires size simultaneous arrivals.
func NewBatch(epochs ArrivalProcess, size int) *Batch {
	if size <= 0 {
		panic(fmt.Sprintf("workload: batch size %d must be positive", size))
	}
	return &Batch{Epochs: epochs, Size: size}
}

// Next emits the remaining members of the current batch at the epoch
// time, then advances the underlying epoch process.
func (b *Batch) Next(t float64, rng *rand.Rand) (float64, bool) {
	if b.pending > 0 {
		b.pending--
		return b.epochT, true
	}
	next, ok := b.Epochs.Next(t, rng)
	if !ok {
		return 0, false
	}
	b.epochT = next
	b.pending = b.Size - 1
	return next, true
}

// Rate returns Size times the epoch rate.
func (b *Batch) Rate() float64 { return float64(b.Size) * b.Epochs.Rate() }

func (b *Batch) String() string {
	return fmt.Sprintf("Batch(size=%d, epochs=%s)", b.Size, b.Epochs)
}
