package httpserv

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/netem"
)

func newTestServer(workers int) (*InferenceServer, *httptest.Server) {
	srv := NewInferenceServer(app.NewInferenceModelWith(0.010, 0.1), workers, 1)
	ts := httptest.NewServer(srv)
	return srv, ts
}

func get(t *testing.T, url, svcHeader string) *http.Response {
	t.Helper()
	resp, err := request(url, svcHeader)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// request sends one GET, optionally naming its service time; unlike
// get it may run off the test goroutine.
func request(url, svcHeader string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if svcHeader != "" {
		req.Header.Set(ServiceTimeHeader, svcHeader)
	}
	return http.DefaultClient.Do(req)
}

// drain reads and closes a request's response body, passing on its
// error, so a spawned goroutine can hand the result to the test
// goroutine.
func drain(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

func TestInferenceServerBasic(t *testing.T) {
	srv, ts := newTestServer(1)
	defer ts.Close()
	resp := get(t, ts.URL, "0.005")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) == 0 {
		t.Fatal("empty body")
	}
	if resp.Header.Get("X-Exec-Time") == "" || resp.Header.Get("X-Wait-Time") == "" {
		t.Error("timing headers missing")
	}
	if srv.Served() != 1 {
		t.Errorf("Served = %d", srv.Served())
	}
}

func TestInferenceServerHonorsServiceTime(t *testing.T) {
	_, ts := newTestServer(1)
	defer ts.Close()
	start := time.Now()
	resp := get(t, ts.URL, "0.060")
	resp.Body.Close()
	if d := time.Since(start); d < 55*time.Millisecond {
		t.Errorf("request returned after %v, want >= 60ms", d)
	}
	execS, err := strconv.ParseFloat(resp.Header.Get("X-Exec-Time"), 64)
	if err != nil || execS < 0.055 {
		t.Errorf("X-Exec-Time = %v", execS)
	}
}

func TestInferenceServerRejectsBadHeader(t *testing.T) {
	_, ts := newTestServer(1)
	defer ts.Close()
	for _, h := range []string{"abc", "-1"} {
		resp := get(t, ts.URL, h)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("header %q: status = %d, want 400", h, resp.StatusCode)
		}
	}
}

// TestFCFSQueueing: with one worker, two concurrent 50 ms requests must
// serialize — the second waits ~50 ms.
func TestFCFSQueueing(t *testing.T) {
	_, ts := newTestServer(1)
	defer ts.Close()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- drain(request(ts.URL, "0.050")) }()
	time.Sleep(20 * time.Millisecond) // let the first request occupy the worker
	resp := get(t, ts.URL, "0.050")
	resp.Body.Close()
	if err := <-done; err != nil {
		t.Fatalf("first request: %v", err)
	}
	wait, _ := strconv.ParseFloat(resp.Header.Get("X-Wait-Time"), 64)
	if time.Since(start) < 95*time.Millisecond {
		t.Error("two 50ms requests on one worker should take >= 100ms total")
	}
	if wait < 0.020 {
		t.Errorf("second request waited %.3fs, want >= 0.020", wait)
	}
}

// overlapExecutor holds each execution until want executions are in
// flight at once, or until a generous timeout, so a test can tell
// concurrent execution from serial execution without timing the host.
type overlapExecutor struct {
	want       int
	mu         sync.Mutex
	inFlight   int
	once       sync.Once
	overlapped chan struct{} // closed once want executions overlap
}

func (e *overlapExecutor) Execute(time.Duration) {
	e.mu.Lock()
	e.inFlight++
	if e.inFlight == e.want {
		e.once.Do(func() { close(e.overlapped) })
	}
	e.mu.Unlock()
	select {
	case <-e.overlapped:
	case <-time.After(10 * time.Second):
	}
	e.mu.Lock()
	e.inFlight--
	e.mu.Unlock()
}

// TestParallelWorkers: two workers execute two requests concurrently.
// Each execution waits for the other, so the test checks overlap, not
// how busy the machine is; one worker would time out instead.
func TestParallelWorkers(t *testing.T) {
	srv, ts := newTestServer(2)
	defer ts.Close()
	ex := &overlapExecutor{want: 2, overlapped: make(chan struct{})}
	srv.Executor = ex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := request(ts.URL, "0.050")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	select {
	case <-ex.overlapped:
	default:
		t.Error("two workers never executed two requests at once")
	}
}

func TestQueueCapRejects(t *testing.T) {
	srv := NewInferenceServer(app.NewInferenceModelWith(0.010, 0), 1, 1)
	srv.QueueCap = 1
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	var errs []error
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := request(ts.URL, "0.100")
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			resp.Body.Close()
			codes[resp.StatusCode]++
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d of 8 requests failed: %v", len(errs), errs)
	}
	if codes[http.StatusServiceUnavailable] == 0 {
		t.Errorf("expected 503s with QueueCap=1, got %v", codes)
	}
	if srv.Rejected() == 0 {
		t.Error("Rejected counter not incremented")
	}
}

func TestProxyRoundRobin(t *testing.T) {
	s1, t1 := newTestServer(1)
	defer t1.Close()
	s2, t2 := newTestServer(1)
	defer t2.Close()
	p, err := NewProxy([]string{t1.URL, t2.URL}, PolicyRoundRobin, netem.Path{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := httptest.NewServer(p)
	defer tp.Close()
	for i := 0; i < 4; i++ {
		resp := get(t, tp.URL, "0.001")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Backend") == "" {
			t.Error("X-Backend header missing")
		}
	}
	if s1.Served() != 2 || s2.Served() != 2 {
		t.Errorf("round robin split %d/%d, want 2/2", s1.Served(), s2.Served())
	}
}

func TestProxyLeastConn(t *testing.T) {
	_, t1 := newTestServer(1)
	defer t1.Close()
	s2, t2 := newTestServer(1)
	defer t2.Close()
	p, err := NewProxy([]string{t1.URL, t2.URL}, PolicyLeastConn, netem.Path{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := httptest.NewServer(p)
	defer tp.Close()

	// Occupy backend 1 with a slow request, then fire a fast one: it
	// must route to backend 2.
	done := make(chan error, 1)
	go func() { done <- drain(request(tp.URL, "0.200")) }()
	time.Sleep(30 * time.Millisecond)
	resp := get(t, tp.URL, "0.001")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := <-done; err != nil {
		t.Fatalf("slow request: %v", err)
	}
	if s2.Served() == 0 {
		t.Error("least-conn should have routed the fast request to the idle backend")
	}
}

func TestProxyInjectsRTT(t *testing.T) {
	_, t1 := newTestServer(1)
	defer t1.Close()
	p, err := NewProxy([]string{t1.URL}, PolicyRoundRobin, netem.Constant("lan", 0.080), 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := httptest.NewServer(p)
	defer tp.Close()
	start := time.Now()
	resp := get(t, tp.URL, "0.001")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if d := time.Since(start); d < 75*time.Millisecond {
		t.Errorf("RTT injection missing: request took %v, want >= 80ms", d)
	}
}

func TestProxyRandomPolicy(t *testing.T) {
	s1, t1 := newTestServer(1)
	defer t1.Close()
	s2, t2 := newTestServer(1)
	defer t2.Close()
	p, err := NewProxy([]string{t1.URL, t2.URL}, PolicyRandom, netem.Path{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tp := httptest.NewServer(p)
	defer tp.Close()
	for i := 0; i < 30; i++ {
		resp := get(t, tp.URL, "0.001")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if s1.Served() == 0 || s2.Served() == 0 {
		t.Errorf("random policy starved a backend: %d/%d", s1.Served(), s2.Served())
	}
}

func TestProxyErrors(t *testing.T) {
	if _, err := NewProxy(nil, PolicyRoundRobin, netem.Path{}, 1); err == nil {
		t.Error("empty backend list should error")
	}
	if _, err := NewProxy([]string{"http://\x7f"}, PolicyRoundRobin, netem.Path{}, 1); err == nil {
		t.Error("invalid URL should error")
	}
}

func TestProxyBadGateway(t *testing.T) {
	p, err := NewProxy([]string{"http://127.0.0.1:1"}, PolicyRoundRobin, netem.Path{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Client = &http.Client{Timeout: 300 * time.Millisecond}
	tp := httptest.NewServer(p)
	defer tp.Close()
	resp := get(t, tp.URL, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable backend: status = %d, want 502", resp.StatusCode)
	}
}

func TestServerPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero workers should panic")
		}
	}()
	NewInferenceServer(app.NewInferenceModel(), 0, 1)
}

func BenchmarkInferenceServerThroughput(b *testing.B) {
	srv := NewInferenceServer(app.NewInferenceModelWith(0.0001, 0), 4, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &http.Client{}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
			req.Header.Set(ServiceTimeHeader, "0.0001")
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}
