package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCalendarHold times the default calendar on a replay-like
// hold model: a fixed population of pending events, each of which
// schedules exactly one successor when it fires. Half of them are
// requests arriving at a station (front-priority, as the feeder
// schedules them), whose successor is their completion one service
// time later; the other half are completions, whose successor is the
// next arrival a think time plus a half round trip later. The service
// (mean 1/13 s) and think time (mean 1/20 s) are the paper pair's, and
// the increments are drawn up front, so ns/op is the engine's cost per
// event: one pop, one push and one callback. The populations bracket
// the calendar's first resize at 129 events: 9 is the paper pair's
// mean pending count, 125 sits just below the resize and 250 above it.
func BenchmarkCalendarHold(b *testing.B) {
	const table = 1 << 12 // pre-drawn increments, reused cyclically
	rng := rand.New(rand.NewSource(1))
	service := make([]float64, table)
	gap := make([]float64, table)
	for i := range service {
		service[i] = rng.ExpFloat64() / 13
		gap[i] = rng.ExpFloat64()/20 + 0.0005 + 0.0001*rng.Float64()
	}
	for _, pending := range []int{9, 125, 250} {
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
				k = (k + 1) & (table - 1)
				return true
			}
			arrive = func(e *Engine, p any) {
				if fire(e) {
					e.AfterPayload(service[k], complete, p)
				}
			}
			complete = func(e *Engine, p any) {
				if fire(e) {
					e.AtPayloadFront(e.Now()+gap[k], arrive, p)
				}
			}
			for i := 0; i < pending; i++ {
				if i%2 == 0 {
					e.AtPayloadFront(gap[i], arrive, nil)
				} else {
					e.AfterPayload(service[i], complete, nil)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
