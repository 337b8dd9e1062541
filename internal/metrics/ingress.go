package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// IngressCounters are the operational metrics of the ingress middleware
// chain (internal/middleware): lock-free atomic counters fed from the
// request path, declared by Metrics and appended to the service's /metrics
// output by the chain itself.
type IngressCounters struct {
	// Requests counts every request entering the chain (probes included).
	Requests atomic.Int64
	// Panics counts handler panics converted into 500s by the recovery
	// middleware instead of killing the daemon.
	Panics atomic.Int64
	// AuthFailures counts requests rejected 401 (missing/unknown token);
	// AuthDenied counts 403s (valid token without the required privilege).
	AuthFailures atomic.Int64
	AuthDenied   atomic.Int64
	// ThrottledIP / ThrottledTenant count 429s from the client-IP and
	// per-tenant token buckets respectively.
	ThrottledIP     atomic.Int64
	ThrottledTenant atomic.Int64
	// Sheds counts requests rejected 429 by the latency-based load
	// shedder; per-tenant totals are kept alongside (ObserveShed).
	Sheds atomic.Int64

	// ShedLevel is the shedder's current escalation level (gauge; 0 = not
	// shedding). RequestP99Nanos is the most recently evaluated p99 of the
	// request-latency window (gauge).
	ShedLevel       atomic.Int64
	RequestP99Nanos atomic.Int64

	mu           sync.Mutex
	shedByTenant map[string]int64
}

// NewIngressCounters returns zeroed counters.
func NewIngressCounters() *IngressCounters {
	return &IngressCounters{shedByTenant: make(map[string]int64)}
}

// ObserveShed records one shed request attributed to tenant ("" is the
// anonymous/unauthenticated class).
func (c *IngressCounters) ObserveShed(tenant string) {
	c.Sheds.Add(1)
	c.mu.Lock()
	c.shedByTenant[tenant]++
	c.mu.Unlock()
}

// Metrics declares every ingress metric for /metrics; the per-tenant shed
// totals in tenant order.
func (c *IngressCounters) Metrics() []Metric {
	type shed struct {
		tenant string
		n      int64
	}
	c.mu.Lock()
	sheds := make([]shed, 0, len(c.shedByTenant))
	for t, n := range c.shedByTenant {
		sheds = append(sheds, shed{t, n})
	}
	c.mu.Unlock()
	sort.Slice(sheds, func(i, k int) bool { return sheds[i].tenant < sheds[k].tenant })
	return append([]Metric{
		Counter("gridsched_ingress_requests_total", &c.Requests),
		Counter("gridsched_ingress_panics_total", &c.Panics),
		Counter("gridsched_ingress_auth_failures_total", &c.AuthFailures),
		Counter("gridsched_ingress_auth_denied_total", &c.AuthDenied),
		Counter("gridsched_ingress_throttled_ip_total", &c.ThrottledIP),
		Counter("gridsched_ingress_throttled_tenant_total", &c.ThrottledTenant),
		Counter("gridsched_ingress_sheds_total", &c.Sheds),
		Gauge("gridsched_ingress_shed_level", &c.ShedLevel),
		Fixed("gridsched_ingress_request_p99_seconds", KindGauge, float64(c.RequestP99Nanos.Load())/1e9),
	}, Table(sheds, func(s *shed) []Label { return []Label{{"tenant", s.tenant}} },
		Col("gridsched_ingress_tenant_sheds_total", KindCounter, func(s *shed) float64 { return float64(s.n) }))...)
}

// LatencyWindow is a fixed-size ring of the most recent request latencies,
// the percentile source for latency-based load shedding. The existing
// dispatch summary (ServiceCounters.ObserveDispatch) records count+sum+max
// — enough for rate dashboards but not for a tail-latency bound — so the
// ingress chain keeps this bounded sample window alongside and evaluates
// p99 over it at a fixed cadence. Writes are one mutexed ring store;
// Percentile copies and sorts the (small, bounded) window and is only
// called at evaluation ticks, never per request.
type LatencyWindow struct {
	mu    sync.Mutex
	buf   []int64
	n     int   // filled entries, ≤ len(buf)
	idx   int   // next write position
	total int64 // lifetime observations
}

// NewLatencyWindow returns a window of the given sample capacity (≤ 0
// picks 1024).
func NewLatencyWindow(size int) *LatencyWindow {
	if size <= 0 {
		size = 1024
	}
	return &LatencyWindow{buf: make([]int64, size)}
}

// Observe folds one latency into the ring, evicting the oldest sample
// once full.
func (lw *LatencyWindow) Observe(d time.Duration) {
	lw.mu.Lock()
	lw.buf[lw.idx] = int64(d)
	lw.idx = (lw.idx + 1) % len(lw.buf)
	if lw.n < len(lw.buf) {
		lw.n++
	}
	lw.total++
	lw.mu.Unlock()
}

// Total is the lifetime observation count — evaluation ticks compare it
// across ticks to detect a stalled window (no fresh samples).
func (lw *LatencyWindow) Total() int64 {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.total
}

// Samples is the number of latencies currently resident in the window.
func (lw *LatencyWindow) Samples() int {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.n
}

// Percentile returns the q-th (0 < q ≤ 1) latency percentile of the
// resident samples, 0 when the window is empty.
func (lw *LatencyWindow) Percentile(q float64) time.Duration {
	lw.mu.Lock()
	samples := make([]int64, lw.n)
	copy(samples, lw.buf[:lw.n])
	lw.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q*float64(len(samples))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return time.Duration(samples[i])
}
