package middleware

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridsched/internal/metrics"

	"gridsched/internal/service/api"
)

// shedRetryAfter is the Retry-After hint on shed responses.
const shedRetryAfter = time.Second

// shedWindow is the latency sample window size (metrics.LatencyWindow).
const shedWindow = 1024

// weightStale is how long a weight class stays in the shed ladder after
// its last request; stale classes fall off so departed tenants do not
// distort the ordering.
const weightStale = time.Minute

// shedder holds the escalation state. The discipline is a deterministic
// ladder over the weight classes of recent traffic, so "low-weight
// tenants shed first, paying tenants last" is an ordering guarantee, not
// a probability:
//
//   - Every ShedEvalEvery, p99 over the sample window is recomputed. Above
//     the bound (with enough samples): the level climbs one step. At or
//     below it — or when no fresh samples arrived, i.e. everything is
//     being shed — the level decays one step.
//   - At level L, the bar is the L-th smallest distinct weight among
//     recently seen classes; sheddable requests from tenants with weight
//     ≤ bar are rejected. Level 1 sheds only the lightest class; the
//     heaviest class sheds only at the top of the ladder, and the decay
//     tick readmits it first.
type shedder struct {
	cfg        *Config
	c          *metrics.IngressCounters
	win        *metrics.LatencyWindow
	retryAfter time.Duration // shedRetryAfter; tests change it

	mu        sync.RWMutex
	lastEval  time.Time
	lastTotal int64
	level     int
	bar       int64 // shed sheddable requests with weight ≤ bar; 0 = none
	weights   map[int64]time.Time
}

func newShedder(cfg *Config) *shedder {
	return &shedder{
		cfg:        cfg,
		c:          cfg.Counters,
		win:        metrics.NewLatencyWindow(shedWindow),
		retryAfter: shedRetryAfter,
		weights:    make(map[int64]time.Time),
	}
}

// weightOf resolves the request's shed weight from its authenticated
// tenant: 1 when there is none, and results < 0 clamp to 0 (shed first).
func (s *shedder) weightOf(st *reqState) (weight int64, tenant string) {
	if !st.hasPrincipal {
		return 1, ""
	}
	return max(st.resolveWeight(s.cfg.TenantWeight), 0), st.principal.Tenant
}

// evaluate adjusts the shed level at the configured cadence and returns
// the current admit bar. now flows in from the caller so tests can drive
// a fake clock. The fast path — no eval due, weight class recently
// recorded — takes only the read lock; the weight-seen timestamp is
// refreshed lazily (at most every weightStale/2 per class), which keeps
// the staleness check exact enough while sparing the hot path the
// exclusive lock and map write.
func (s *shedder) evaluate(now time.Time, weight int64) int64 {
	s.mu.RLock()
	seen, known := s.weights[weight]
	due := now.Sub(s.lastEval) >= s.cfg.ShedEvalEvery
	bar := s.bar
	s.mu.RUnlock()
	if !due && known && now.Sub(seen) < weightStale/2 {
		return bar
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.weights[weight] = now
	if now.Sub(s.lastEval) < s.cfg.ShedEvalEvery {
		return s.bar
	}
	s.lastEval = now
	total := s.win.Total()
	fresh := total > s.lastTotal
	s.lastTotal = total
	p99 := s.win.Percentile(0.99)
	s.c.RequestP99Nanos.Store(int64(p99))
	switch {
	case fresh && s.win.Samples() >= s.cfg.ShedMinSamples && p99 > s.cfg.ShedP99:
		s.level++
	case s.level > 0:
		s.level--
	}
	// Recompute the ladder from the weight classes still current.
	ladder := make([]int64, 0, len(s.weights))
	for w, seen := range s.weights {
		if now.Sub(seen) > weightStale {
			delete(s.weights, w)
			continue
		}
		ladder = append(ladder, w)
	}
	sort.Slice(ladder, func(i, j int) bool { return ladder[i] < ladder[j] })
	if s.level > len(ladder) {
		s.level = len(ladder)
	}
	if s.level == 0 || len(ladder) == 0 {
		s.bar = 0
	} else {
		s.bar = ladder[s.level-1]
	}
	s.c.ShedLevel.Store(int64(s.level))
	return s.bar
}

// ObserveParked records time a handler spent deliberately parked waiting
// for work — the long-poll portion of a pull — so the shedder can
// subtract it from the request's observed latency. Without this, an idle
// worker's empty pull (parked server-side for the full poll budget,
// client default 2s) would be sampled as a ~2s latency, breach any
// realistic p99 bound, and shed a completely unloaded system.
// internal/service reports each pull's accumulated park through here.
// Outside the ingress chain it is a no-op.
func ObserveParked(ctx context.Context, d time.Duration) {
	if st, _ := ctx.Value(reqStateKey).(*reqState); st != nil && d > 0 {
		st.parked.Add(int64(d))
	}
}

// sheddable reports whether the request may be shed: new work entering
// the system — job submissions and worker pulls. Reports and heartbeats
// always pass: they RETIRE in-flight work, and shedding them would deepen
// the very overload being shed.
func sheddable(r *http.Request) bool {
	switch r.Method {
	case http.MethodPost:
		return r.URL.Path == "/v1/jobs" ||
			(strings.HasPrefix(r.URL.Path, "/v1/workers/") && strings.HasSuffix(r.URL.Path, "/pull"))
	case http.MethodGet:
		// Opening a lease stream admits new work exactly like a pull;
		// batched reports (POST .../reports) retire work and always pass.
		return strings.HasPrefix(r.URL.Path, "/v1/workers/") && strings.HasSuffix(r.URL.Path, "/stream")
	}
	return false
}

// wrap is the admission-control layer: it samples every non-exempt
// request's latency into a bounded window and, when the p99 breaches
// ShedP99, sheds pulls and submits with 429 + Retry-After — lightest
// weight classes first (see shedder). Time a handler reports as
// deliberately parked (ObserveParked: long-poll pull waits) is excluded
// from the sample, so idle workers polling an empty queue do not read as
// multi-second latencies. Shed responses are not sampled, so a fully shed
// system goes quiet, the window stales, and the decay tick readmits
// traffic — heaviest tenants first.
func (s *shedder) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if Exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		now := s.cfg.Now()
		st := state(r)
		weight, tenant := s.weightOf(st)
		bar := s.evaluate(now, weight)
		if bar > 0 && weight <= bar && sheddable(r) {
			s.c.ObserveShed(tenant)
			Logf(r.Context(), "shed=true tenant=%q weight=%d bar=%d", tenant, weight, bar)
			w.Header().Set("Retry-After", strconv.FormatInt(int64((s.retryAfter+time.Second-1)/time.Second), 10))
			api.WriteJSON(w, http.StatusTooManyRequests, api.ErrorResponse{Error: "overloaded; shed, retry later"})
			return
		}
		next.ServeHTTP(w, r)
		s.win.Observe(max(s.cfg.Now().Sub(now)-time.Duration(st.parked.Load()), 0))
	})
}
