package httpserv

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/netem"
)

// Backend is one proxied inference server.
type Backend struct {
	URL      *url.URL
	inflight atomic.Int64
	served   atomic.Uint64
}

// Inflight returns the proxy-observed outstanding requests at this
// backend, the signal least-connections routing uses (as HAProxy does).
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// Served returns completed requests routed to this backend.
func (b *Backend) Served() uint64 { return b.served.Load() }

// Policy selects the proxy's balancing algorithm.
type Policy string

// Supported proxy policies.
const (
	PolicyRoundRobin Policy = "round-robin"
	PolicyLeastConn  Policy = "least-connections"
	PolicyRandom     Policy = "random"
)

// Proxy is an HAProxy-like HTTP load balancer with artificial network
// latency injection: every proxied request sleeps RTT/2 before being
// forwarded and RTT/2 before the response is returned, emulating the
// client→region→client path of the paper's EC2 deployments.
type Proxy struct {
	Backends []*Backend
	Policy   Policy
	Path     netem.Path // injected RTT model (zero value = no delay)
	Client   *http.Client

	mu   sync.Mutex
	rng  *rand.Rand
	next int
}

// NewProxy builds a proxy over backend base URLs (e.g.
// "http://127.0.0.1:9001").
func NewProxy(backendURLs []string, policy Policy, path netem.Path, seed int64) (*Proxy, error) {
	if len(backendURLs) == 0 {
		return nil, fmt.Errorf("httpserv: proxy needs at least one backend")
	}
	p := &Proxy{
		Policy: policy,
		Path:   path,
		Client: &http.Client{Timeout: 120 * time.Second},
		rng:    dist.NewRand(seed),
	}
	for _, raw := range backendURLs {
		u, err := url.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("httpserv: backend %q: %w", raw, err)
		}
		p.Backends = append(p.Backends, &Backend{URL: u})
	}
	return p, nil
}

// pick selects a backend under the configured policy.
func (p *Proxy) pick() *Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.Policy {
	case PolicyLeastConn:
		best := p.Backends[0]
		for _, b := range p.Backends[1:] {
			if b.Inflight() < best.Inflight() {
				best = b
			}
		}
		return best
	case PolicyRandom:
		return p.Backends[p.rng.Intn(len(p.Backends))]
	default: // round robin
		b := p.Backends[p.next%len(p.Backends)]
		p.next++
		return b
	}
}

// sampleRTT draws an RTT from the path model (0 when unset).
func (p *Proxy) sampleRTT() time.Duration {
	if p.Path.RTT == nil {
		return 0
	}
	p.mu.Lock()
	rtt := p.Path.Sample(p.rng)
	p.mu.Unlock()
	return time.Duration(rtt * float64(time.Second))
}

// ServeHTTP forwards the request to a backend with injected latency.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rtt := p.sampleRTT()
	if rtt > 0 {
		time.Sleep(rtt / 2)
	}
	b := p.pick()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	out, err := http.NewRequestWithContext(r.Context(), r.Method, b.URL.ResolveReference(r.URL).String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	resp, err := p.Client.Do(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if rtt > 0 {
		time.Sleep(rtt - rtt/2)
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Backend", b.URL.Host)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err == nil {
		b.served.Add(1)
	}
}
