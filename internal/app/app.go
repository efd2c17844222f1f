// Package app models the paper's application under test: a web-based DNN
// image-classification service (Keras/TensorFlow/Flask in the paper)
// whose compute-bound handler saturates a c5a.xlarge at 13 req/s. Since
// the original model and EC2 hardware are unavailable, app provides a
// calibrated service-time model with the same saturation point and a
// configurable variability, plus executors that spend a request's
// service time on real hardware for the live testbed.
package app

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dist"
)

// SaturationRate is the paper's measured saturation throughput of one
// c5a.xlarge instance serving DNN inference: 13 req/s (§4.2).
const SaturationRate = 13.0

// MaxPracticalRate is the paper's maximum sustainable request rate per
// server, 12 req/s (≈92% utilization), beyond which the service thrashes.
const MaxPracticalRate = 12.0

// DefaultServiceSCV is the squared coefficient of variation of inference
// service times. DNN inference on fixed-architecture models is close to
// deterministic; we use a small positive SCV to model input-size and
// OS-jitter effects. Together with the paced arrival SCV (see
// cluster.DefaultArrivalSCV) this calibrates the simulator so the Fig. 3
// crossover lands at the paper's measured 8 req/s.
const DefaultServiceSCV = 0.1

// InferenceModel describes the service-time behaviour of the DNN
// application on one server.
type InferenceModel struct {
	// MeanServiceTime is the expected execution time of one request in
	// seconds (1/SaturationRate by default).
	MeanServiceTime float64
	// SCV is the squared coefficient of variation of service times.
	SCV float64
	// D samples service times.
	D dist.Dist
}

// NewInferenceModel returns the calibrated c5a.xlarge inference model.
func NewInferenceModel() InferenceModel {
	return NewInferenceModelWith(1/SaturationRate, DefaultServiceSCV)
}

// NewInferenceModelWith returns a model with explicit mean and SCV.
func NewInferenceModelWith(mean, scv float64) InferenceModel {
	if mean <= 0 || scv < 0 {
		panic(fmt.Sprintf("app: invalid inference model mean=%v scv=%v", mean, scv))
	}
	return InferenceModel{MeanServiceTime: mean, SCV: scv, D: dist.FitSCV(mean, scv)}
}

// Slowed returns a copy of the model with service times scaled by
// factor > 1, modeling the resource-constrained edge servers discussed in
// §3.1.1 (fewer cores or slower processors ⇒ s_edge > s_cloud).
func (m InferenceModel) Slowed(factor float64) InferenceModel {
	if factor <= 0 {
		panic("app: slow-down factor must be positive")
	}
	return InferenceModel{
		MeanServiceTime: m.MeanServiceTime * factor,
		SCV:             m.SCV,
		D:               dist.Scaled{D: m.D, Factor: factor},
	}
}

// Mu returns the per-server service rate in req/s.
func (m InferenceModel) Mu() float64 { return 1 / m.MeanServiceTime }

// SampleServiceTime draws one request's execution time in seconds.
func (m InferenceModel) SampleServiceTime(rng *rand.Rand) float64 {
	s := m.D.Sample(rng)
	if s <= 0 {
		s = 1e-6
	}
	return s
}

// String describes the model.
func (m InferenceModel) String() string {
	return fmt.Sprintf("InferenceModel(mean=%.1fms, scv=%.2f)", m.MeanServiceTime*1000, m.SCV)
}

// Executor runs one request's worth of work on real hardware, used by
// the live HTTP testbed. Implementations must block for approximately
// the requested service time.
type Executor interface {
	Execute(serviceTime time.Duration)
}

// SleepExecutor blocks without consuming CPU; suitable when emulating
// many servers on one machine.
type SleepExecutor struct{}

// Execute sleeps for the service time.
func (SleepExecutor) Execute(d time.Duration) { time.Sleep(d) }

// SpinExecutor burns CPU for the service time, reproducing the
// compute-bound nature of DNN inference. A small sleep quantum yields the
// scheduler periodically so co-hosted emulated servers are not starved.
type SpinExecutor struct{}

// Execute busy-loops until the deadline.
func (SpinExecutor) Execute(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		// A short burst of arithmetic keeps the loop from being optimized
		// away while checking the clock only every few thousand ops.
		for i := 0; i < 4096; i++ {
			x = x*1.0000001 + 1e-9
		}
		if x > 1e300 {
			x = 1.0
		}
	}
	_ = x
}
