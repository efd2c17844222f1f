// Package httpserv is the live substrate of the reproduction: a real
// net/http inference-service emulator with an explicit FCFS request
// queue and bounded worker pool (standing in for the paper's
// Keras/Flask DNN classifier on a c5a.xlarge), and an HAProxy-like
// reverse proxy that injects artificial region-to-region RTTs and
// balances load across backends. Together with internal/loadgen these
// let every simulated experiment also be run end to end over real
// sockets on localhost.
package httpserv

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/dist"
)

// ServiceTimeHeader carries the requested execution time in seconds; if
// absent the server samples from its inference model. This mirrors the
// paper's trace replay, where each request carries an execution time
// sampled from the Azure distributions.
const ServiceTimeHeader = "X-Service-Time"

// queuedJob is one admitted request waiting for a worker.
type queuedJob struct {
	serviceTime time.Duration
	enqueued    time.Time
	done        chan jobResult
}

type jobResult struct {
	wait    time.Duration
	service time.Duration
}

// InferenceServer emulates one deployment unit: Workers concurrent
// executors behind a single FCFS queue, exactly the queueing model of
// the paper's Figure 1.
type InferenceServer struct {
	Model    app.InferenceModel
	Executor app.Executor
	Workers  int
	QueueCap int // maximum queued jobs before 503 (0 = unbounded-ish default)

	mu       sync.Mutex
	rng      *rand.Rand
	jobs     chan *queuedJob
	started  sync.Once
	inflight atomic.Int64
	served   atomic.Uint64
	rejected atomic.Uint64
}

// NewInferenceServer returns a server with the given worker count.
func NewInferenceServer(model app.InferenceModel, workers int, seed int64) *InferenceServer {
	if workers <= 0 {
		panic(fmt.Sprintf("httpserv: workers=%d invalid", workers))
	}
	return &InferenceServer{
		Model:    model,
		Executor: app.SleepExecutor{},
		Workers:  workers,
		rng:      dist.NewRand(seed),
	}
}

func (s *InferenceServer) start() {
	cap := s.QueueCap
	if cap <= 0 {
		cap = 65536
	}
	s.jobs = make(chan *queuedJob, cap)
	for i := 0; i < s.Workers; i++ {
		go s.worker()
	}
}

func (s *InferenceServer) worker() {
	for job := range s.jobs {
		wait := time.Since(job.enqueued)
		start := time.Now()
		s.Executor.Execute(job.serviceTime)
		job.done <- jobResult{wait: wait, service: time.Since(start)}
	}
}

// ServeHTTP admits the request to the FCFS queue and replies with the
// classification result once a worker has executed it. The response
// reports the server-side wait and service times in headers for
// experiment analysis.
func (s *InferenceServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.started.Do(s.start)

	var serviceTime time.Duration
	if h := r.Header.Get(ServiceTimeHeader); h != "" {
		secs, err := strconv.ParseFloat(h, 64)
		if err != nil || secs < 0 {
			http.Error(w, "bad "+ServiceTimeHeader, http.StatusBadRequest)
			return
		}
		serviceTime = time.Duration(secs * float64(time.Second))
	} else {
		s.mu.Lock()
		secs := s.Model.SampleServiceTime(s.rng)
		s.mu.Unlock()
		serviceTime = time.Duration(secs * float64(time.Second))
	}

	job := &queuedJob{
		serviceTime: serviceTime,
		enqueued:    time.Now(),
		done:        make(chan jobResult, 1),
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	select {
	case s.jobs <- job:
	default:
		s.rejected.Add(1)
		http.Error(w, "queue full", http.StatusServiceUnavailable)
		return
	}

	select {
	case res := <-job.done:
		s.served.Add(1)
		w.Header().Set("X-Wait-Time", strconv.FormatFloat(res.wait.Seconds(), 'g', -1, 64))
		w.Header().Set("X-Exec-Time", strconv.FormatFloat(res.service.Seconds(), 'g', -1, 64))
		fmt.Fprintf(w, `{"class":"label-%d","wait_s":%g,"exec_s":%g}`,
			s.served.Load()%1000, res.wait.Seconds(), res.service.Seconds())
	case <-r.Context().Done():
		// Client gave up; the worker will still drain the job.
		http.Error(w, "client canceled", http.StatusRequestTimeout)
	}
}

// Inflight returns the number of requests currently queued or executing.
func (s *InferenceServer) Inflight() int64 { return s.inflight.Load() }

// Served returns the number of completed requests.
func (s *InferenceServer) Served() uint64 { return s.served.Load() }

// Rejected returns the number of requests refused with 503.
func (s *InferenceServer) Rejected() uint64 { return s.rejected.Load() }
