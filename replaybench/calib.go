package main

import (
	"math/rand"
	"sync"
	"time"
)

// Machine-speed calibration. The benchmark's host class (small VMs on
// shared hosts) alternates, for seconds to minutes at a time, between
// its full speed and a state in which branchy, allocation-heavy code
// such as this simulator runs up to ~1.6x slower; a pure arithmetic
// loop barely notices. Measured on one 2-vCPU host: one run's passes
// spanned 1.05-2.2 M req/s, and the median of ten 30 s runs moved by
// 35% across seeds. The kernel below is a fixed, self-contained
// discrete-event simulation, written in the engine's style (a binary
// heap of closures, queues of pointers, appended latencies) but sharing
// no code with it, so an engine change cannot move it. Timed right
// before and after every pass, its speed tracked the replay's: their
// ratio stayed within ±0.5% over 10 s windows while the raw rate moved
// ±5.5%. Every end-to-end time is reported scaled to the kernel's
// reference speed calibRef, i.e. as it would read on a host that runs
// the kernel at calibRef events per second.

const (
	// calibRef is the reference kernel speed, events per host second.
	calibRef = 8e6
	// calibEvents is one kernel run: a few ms.
	calibEvents = 40_000
)

// calibrate runs the kernel on procs goroutines at once, one per core
// the workload uses, and returns their mean speed in events per second.
func calibrate(procs int) float64 {
	speeds := make([]float64, procs)
	var wg sync.WaitGroup
	for i := range speeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			speeds[i] = calibKernel()
		}()
	}
	wg.Wait()
	var sum float64
	for _, s := range speeds {
		sum += s
	}
	return sum / float64(procs)
}

type calEvent struct {
	t  float64
	fn func(now float64)
}

// calHeap is a binary min-heap of events by time.
type calHeap []calEvent

func (h *calHeap) push(e calEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].t <= s[i].t {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *calHeap) pop() calEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && s[r].t < s[l].t {
			l = r
		}
		if s[i].t <= s[l].t {
			break
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
	return top
}

type calReq struct{ arrival float64 }

type calStation struct {
	busy    int
	waiting []*calReq
}

// calibKernel simulates five 2-server stations at ρ ≈ 0.77 for
// calibEvents events and returns events per host second.
func calibKernel() float64 {
	rng := rand.New(rand.NewSource(1))
	var h calHeap
	st := make([]calStation, 5)
	lat := make([]float64, 0, calibEvents)
	var complete func(site int, r *calReq) func(now float64)
	complete = func(site int, r *calReq) func(now float64) {
		return func(now float64) {
			s := &st[site]
			lat = append(lat, now-r.arrival)
			s.busy--
			if len(s.waiting) > 0 {
				next := s.waiting[0]
				s.waiting = s.waiting[1:]
				s.busy++
				h.push(calEvent{now + rng.ExpFloat64()/13, complete(site, next)})
			}
		}
	}
	var arrive func(site int) func(now float64)
	arrive = func(site int) func(now float64) {
		return func(now float64) {
			s := &st[site]
			r := &calReq{arrival: now}
			if s.busy < 2 {
				s.busy++
				h.push(calEvent{now + rng.ExpFloat64()/13, complete(site, r)})
			} else {
				s.waiting = append(s.waiting, r)
			}
			h.push(calEvent{now + rng.ExpFloat64()/20, arrive(site)})
		}
	}
	for i := range st {
		h.push(calEvent{rng.Float64(), arrive(i)})
	}
	t0 := time.Now()
	for i := 0; i < calibEvents; i++ {
		e := h.pop()
		e.fn(e.t)
	}
	return calibEvents / time.Since(t0).Seconds()
}
