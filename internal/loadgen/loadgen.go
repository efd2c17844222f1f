// Package loadgen is the reproduction's Gatling substitute: an open-loop
// load generator that issues HTTP requests at the times prescribed by an
// arrival process (or a recorded trace) and logs per-request end-to-end
// latencies. Open-loop generation is essential for queueing experiments:
// request timing must not depend on response timing, or utilization
// self-limits and the inversion never appears.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RequestResult records one issued request.
type RequestResult struct {
	Issued  time.Time
	Latency time.Duration
	Status  int
	Err     error
}

// Report aggregates a run.
type Report struct {
	Latencies stats.Sample // seconds, successful requests only
	Issued    int
	Succeeded int
	Failed    int
	Errors    int
	Duration  time.Duration
}

// MeanLatency returns the mean successful latency in seconds.
func (r *Report) MeanLatency() float64 { return r.Latencies.Mean() }

// P95Latency returns the 95th-percentile latency in seconds.
func (r *Report) P95Latency() float64 { return r.Latencies.P95() }

// Config describes one load-generation run.
type Config struct {
	TargetURL string
	Arrivals  workload.ArrivalProcess
	Duration  time.Duration
	Warmup    time.Duration // results before this offset are discarded
	Seed      int64
	// ServiceTimes optionally samples a per-request service time to send
	// in the X-Service-Time header (trace replay); nil lets the server
	// sample its own.
	ServiceTimes func(rng *rand.Rand) float64
	// MaxInflight caps concurrent outstanding requests as a safety
	// valve; 0 means no cap (true open loop).
	MaxInflight int
	Client      *http.Client
}

// Run executes the load test and blocks until all issued requests have
// completed or the context is canceled.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.TargetURL == "" || cfg.Arrivals == nil || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: config needs TargetURL, Arrivals and Duration")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        4096,
				MaxIdleConnsPerHost: 4096,
			},
		}
	}

	rng := dist.NewRand(cfg.Seed)
	svcRng := dist.NewRand(cfg.Seed + 1)

	report := &Report{}
	var mu sync.Mutex
	var wg sync.WaitGroup

	var sem chan struct{}
	if cfg.MaxInflight > 0 {
		sem = make(chan struct{}, cfg.MaxInflight)
	}

	start := time.Now()
	simT := 0.0
	for {
		next, ok := cfg.Arrivals.Next(simT, rng)
		if !ok || next > cfg.Duration.Seconds() {
			break
		}
		simT = next
		fireAt := start.Add(time.Duration(simT * float64(time.Second)))
		if d := time.Until(fireAt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				report.Duration = time.Since(start)
				return report, ctx.Err()
			}
		}

		var svcHeader string
		if cfg.ServiceTimes != nil {
			svcHeader = strconv.FormatFloat(cfg.ServiceTimes(svcRng), 'g', -1, 64)
		}
		inWarmup := simT < cfg.Warmup.Seconds()

		mu.Lock()
		report.Issued++
		mu.Unlock()

		if sem != nil {
			sem <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			res := issue(ctx, client, cfg.TargetURL, svcHeader)
			if inWarmup {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case res.Err != nil:
				report.Errors++
				report.Failed++
			case res.Status != http.StatusOK:
				report.Failed++
			default:
				report.Succeeded++
				report.Latencies.Add(res.Latency.Seconds())
			}
		}()
	}
	wg.Wait()
	report.Duration = time.Since(start)
	return report, nil
}

func issue(ctx context.Context, client *http.Client, url, svcHeader string) RequestResult {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return RequestResult{Err: err}
	}
	if svcHeader != "" {
		req.Header.Set("X-Service-Time", svcHeader)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return RequestResult{Issued: t0, Err: err}
	}
	defer resp.Body.Close()
	// Drain the small JSON body so connections are reused.
	buf := make([]byte, 512)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	return RequestResult{Issued: t0, Latency: time.Since(t0), Status: resp.StatusCode}
}
