package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCalendarHold times the default calendar on a replay-like
// hold model: a fixed population of pending events, each of which
// schedules exactly one successor when it fires. Half of them are
// requests arriving at a station, whose successor is their completion
// one service time later; the other half are completions, whose
// successor is the next arrival a think time plus a half round trip
// later. The feeder schedules arrivals front-priority, but here they
// are plain events, so every event goes through the calendar: front
// events would mostly join the engine's arrival FIFO instead
// (BenchmarkArrivalMix times that path). The service
// (mean 1/13 s) and think time (mean 1/20 s) are the paper pair's, and
// the increments are drawn up front, so ns/op is the engine's cost per
// event: one pop, one push and one callback. The populations span both
// calendar modes: 9 is the paper pair's mean pending count and 32 sits
// in the small mode's sorted list; 48 is the promotion threshold, where
// the bucket ring takes over with a width measured from the list; 64,
// 125 and 250 bracket the ring's first doublings, and 10⁵ is a
// many-site engine's population. The rows from 9 to 250 should cost
// about the same per event; the 10⁵ row adds cache misses on its event
// nodes and buckets.
func BenchmarkCalendarHold(b *testing.B) {
	service, gap := holdIncrements()
	for _, pending := range []int{9, 32, 48, 64, 125, 250, 100000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine(1)
			left, k := b.N, 0
			var arrive, complete PayloadEvent
			fire := func(e *Engine) bool {
				left--
				if left <= 0 {
					e.Stop()
					return false
				}
				k = (k + 1) & (holdTable - 1)
				return true
			}
			arrive = func(e *Engine, p any) {
				if fire(e) {
					e.AfterPayload(service[k], complete, p)
				}
			}
			complete = func(e *Engine, p any) {
				if fire(e) {
					e.AfterPayload(gap[k], arrive, p)
				}
			}
			for i := 0; i < pending; i++ {
				if i%2 == 0 {
					e.AfterPayload(gap[i&(holdTable-1)], arrive, nil)
				} else {
					e.AfterPayload(service[i&(holdTable-1)], complete, nil)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// holdTable is the number of pre-drawn hold increments, reused
// cyclically.
const holdTable = 1 << 12

// holdIncrements draws the hold model's service times (mean 1/13 s)
// and arrival gaps (think time of mean 1/20 s plus a 0.5–0.6 ms half
// round trip).
func holdIncrements() (service, gap []float64) {
	rng := rand.New(rand.NewSource(1))
	service = make([]float64, holdTable)
	gap = make([]float64, holdTable)
	for i := range service {
		service[i] = rng.ExpFloat64() / 13
		gap[i] = rng.ExpFloat64()/20 + 0.0005 + 0.0001*rng.Float64()
	}
	return service, gap
}

// BenchmarkArrivalMix times the engine on the paper pair's event mix,
// the arrival model of TestArrivalFIFOCounts on the edge path: a lane
// pump per generated request, its arrival half an RTT later through
// AtPayloadFront (nearly always into the arrival FIFO), and its
// completion through AfterPayload (the calendar). ns/op is the engine's
// cost per request: three events, one calendar push and one FIFO push.
func BenchmarkArrivalMix(b *testing.B) {
	draws := arrivalDraws()
	edge := arrivalPath{"paper edge", []float64{1}, 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	runArrivalModel(NewEngine(1), draws, edge, b.N)
}
