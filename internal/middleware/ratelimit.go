package middleware

import (
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridsched/internal/service/api"
)

// maxBuckets is a hard bound on the bucket table: refilled buckets are
// evicted when it fills, and if none are reclaimable the least recently
// active are dropped, so a flood of unique spoofed client IPs cannot grow
// the table without bound.
const maxBuckets = 65536

// bucket is one token bucket: tokens at the last refill time. rate and
// burst are the bucket's OWN parameters — tenant buckets scale by weight,
// so eviction must compare against them, not the base config: a weight-4
// tenant mid-spend holds more than RateBurst tokens while still being
// actively limited.
type bucket struct {
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

// limiter owns the bucket tables — one keyed by client IP, one by
// tenant, so keys need no allocating prefix on the hot path. One mutex
// over both maps is plenty: an uncontended lock plus two map operations
// is tens of nanoseconds, far below the JSON codec this chain fronts.
type limiter struct {
	cfg        *Config
	maxBuckets int // maxBuckets; tests shrink it
	mu         sync.Mutex
	ip         map[string]*bucket
	ten        map[string]*bucket
}

func newLimiter(cfg *Config) *limiter {
	return &limiter{cfg: cfg, maxBuckets: maxBuckets, ip: make(map[string]*bucket), ten: make(map[string]*bucket)}
}

// take spends one token from key's bucket in table m (refilled at rate,
// capped at burst). When the bucket is empty it reports how long until a
// token accrues. now is passed in so one clock read serves both the IP
// and the tenant bucket of a request.
func (l *limiter) take(m map[string]*bucket, key string, rate, burst float64, now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := m[key]
	if b == nil {
		if len(l.ip)+len(l.ten) >= l.maxBuckets {
			l.evict(now)
			// maxBuckets is a hard bound, not advisory: if nothing was
			// refilled enough to reclaim — every resident bucket mid-spend
			// is exactly the unique-key-flood shape — force out the least
			// recently active instead of growing the table.
			if over := len(l.ip) + len(l.ten) - l.maxBuckets + 1; over > 0 {
				l.evictOldest(over)
			}
		}
		b = &bucket{tokens: burst, last: now, rate: rate, burst: burst}
		m[key] = b
	} else {
		b.tokens = math.Min(burst, b.tokens+rate*now.Sub(b.last).Seconds())
		// Refresh the bucket's own parameters too: a tenant's weight can
		// change between requests, and eviction judges by them.
		b.last, b.rate, b.burst = now, rate, burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
}

// evict drops buckets full or idle long enough to have refilled
// completely — indistinguishable from fresh ones — keeping the tables
// bounded under client-IP churn. Each bucket is judged against its own
// rate and burst (tenant buckets scale by weight), so an actively
// limited heavy tenant is never reset to a free full burst just because
// it holds more tokens than the base depth. Callers hold l.mu.
func (l *limiter) evict(now time.Time) {
	for _, m := range []map[string]*bucket{l.ip, l.ten} {
		for k, b := range m {
			if b.tokens >= b.burst || now.Sub(b.last).Seconds()*b.rate >= b.burst {
				delete(m, k)
			}
		}
	}
}

// evictOldest force-drops the n least recently refilled buckets, plus a
// batch margin so a sustained flood of unique keys sorts the table once
// per batch rather than once per insert. Only reached when evict
// reclaimed too little; the casualties are the longest-inactive buckets,
// whose loss costs their owners at most one fresh burst. Callers hold
// l.mu.
func (l *limiter) evictOldest(n int) {
	if batch := l.maxBuckets / 16; batch > n {
		n = batch
	}
	type ref struct {
		m    map[string]*bucket
		key  string
		last time.Time
	}
	refs := make([]ref, 0, len(l.ip)+len(l.ten))
	for _, m := range []map[string]*bucket{l.ip, l.ten} {
		for k, b := range m {
			refs = append(refs, ref{m, k, b.last})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].last.Before(refs[j].last) })
	if n > len(refs) {
		n = len(refs)
	}
	for _, rf := range refs[:n] {
		delete(rf.m, rf.key)
	}
}

// wrap rejects requests above the configured token-bucket rates with
// 429 + Retry-After. Two keys gate every non-exempt request: the client
// IP (connection origin, pre-auth abuse control) and, when the request is
// authenticated, the tenant (aggregate across the tenant's whole fleet,
// scaled by its fair-share weight).
func (l *limiter) wrap(next http.Handler) http.Handler {
	cfg, c := l.cfg, l.cfg.Counters
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if Exempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		now := cfg.Now()
		if ok, retry := l.take(l.ip, clientIP(r), cfg.RateLimit, cfg.RateBurst, now); !ok {
			c.ThrottledIP.Add(1)
			Logf(r.Context(), "throttle=ip retryAfter=%s", retry)
			throttle(w, retry)
			return
		}
		if st := state(r); st.hasPrincipal {
			tenant := st.principal.Tenant
			weight := float64(1)
			if tw := st.resolveWeight(cfg.TenantWeight); tw > 1 {
				weight = float64(tw)
			}
			if ok, retry := l.take(l.ten, tenant, cfg.RateLimit*weight, cfg.RateBurst*weight, now); !ok {
				c.ThrottledTenant.Add(1)
				Logf(r.Context(), "throttle=tenant tenant=%q retryAfter=%s", tenant, retry)
				throttle(w, retry)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// throttle writes the protocol's 429: Retry-After in whole seconds
// (rounded up, at least 1 — the header has one-second resolution) and the
// standard error body.
func throttle(w http.ResponseWriter, retry time.Duration) {
	secs := int64(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	api.WriteJSON(w, http.StatusTooManyRequests, api.ErrorResponse{Error: "rate limit exceeded; retry later"})
}

// clientIP is the remote address without the port; the rate-limit key for
// unauthenticated abuse control. Hand-rolled rather than
// net.SplitHostPort because the error path there allocates, and
// non-host:port RemoteAddrs (in-process transports) are a hot path here.
func clientIP(r *http.Request) string {
	addr := r.RemoteAddr
	if strings.HasPrefix(addr, "[") { // "[::1]:port"
		if j := strings.IndexByte(addr, ']'); j > 0 {
			return addr[1:j]
		}
		return addr
	}
	i := strings.LastIndexByte(addr, ':')
	if i < 0 || strings.IndexByte(addr[:i], ':') >= 0 {
		return addr // no port, or a bare IPv6 address
	}
	return addr[:i]
}
