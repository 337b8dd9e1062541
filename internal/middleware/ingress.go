package middleware

import (
	"io"
	"math"
	"net/http"
	"os"
	"time"

	"gridsched/internal/metrics"
)

// Config is the ingress chain's one set of settings. Zero-value fields
// disable their layer: a nil Tokens runs without authentication, a zero
// RateLimit without throttling, a zero ShedP99 without shedding — so a dev
// gridschedd with no flags behaves exactly as before, just with tracing and
// panic containment.
type Config struct {
	// Counters receives every ingress decision; nil allocates a private
	// set (they are still served at /metrics via the chain).
	Counters *metrics.IngressCounters
	// Log receives the buffered request logs and panic stacks (default
	// os.Stderr).
	Log io.Writer

	// Tokens enables bearer-token auth when non-nil.
	Tokens *TokenStore

	// RateLimit enables token-bucket throttling when > 0: the sustained
	// requests/second allowed per client IP. Each authenticated tenant
	// additionally gets a bucket of RateLimit × weight — a heavier
	// (paying) tenant's fleet may collectively go proportionally faster.
	// RateBurst is the bucket depth per client IP, scaled by weight for
	// tenants too (0 picks 2×RateLimit, at least 1).
	RateLimit float64
	RateBurst float64

	// ShedP99 enables latency-based load shedding when > 0: once the p99
	// of admitted requests breaches it, submits and pulls are shed 429,
	// lightest tenants first. ShedMinSamples is how many samples must be
	// resident before the shedder trusts a p99 (0 picks 64); ShedEvalEvery
	// is the evaluation cadence, one ladder step per tick (0 picks 250ms).
	ShedP99        time.Duration
	ShedMinSamples int
	ShedEvalEvery  time.Duration

	// TenantWeight resolves an authenticated tenant's fair-share weight
	// for the rate limiter and the shedder
	// (internal/service.Service.TenantWeight). Nil, or an unauthenticated
	// request, counts as weight 1. The limiter counts results < 1 as 1, so
	// an unknown tenant still gets the base rate; the shedder clamps
	// results < 0 to 0, which sheds first.
	TenantWeight func(tenant string) int64

	// Now is the clock (tests); nil is time.Now.
	Now func() time.Time
}

// defaults fills the zero values that stand for a default.
func (cfg *Config) defaults() {
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewIngressCounters()
	}
	if cfg.Log == nil {
		cfg.Log = os.Stderr
	}
	if cfg.RateBurst <= 0 {
		cfg.RateBurst = math.Max(2*cfg.RateLimit, 1)
	}
	if cfg.ShedMinSamples <= 0 {
		cfg.ShedMinSamples = 64
	}
	if cfg.ShedEvalEvery <= 0 {
		cfg.ShedEvalEvery = 250 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
}

// Ingress wraps h in the production chain, outermost first:
//
//	logging → recoverPanics → metricsText → auth → rate limiter → load shedder → h
//
// The order is fixed and load-bearing: logging is outermost so every
// deeper decision lands in a trace-stamped buffer, and every layer below
// it finds the request state it installs; recoverPanics sits above
// everything that could panic; metricsText decorates /metrics before auth
// so the scrape endpoint stays open; auth runs before the rate limiter so
// tenant buckets key off verified principals; the shedder is innermost so
// its latency window measures (and protects) only authenticated,
// unthrottled traffic.
func Ingress(cfg Config, h http.Handler) http.Handler {
	cfg.defaults()
	c := cfg.Counters
	mw := []layer{
		logging(cfg.Log),
		recoverPanics(c, cfg.Log),
		metricsText(c),
		countRequests(c),
	}
	if cfg.Tokens != nil {
		mw = append(mw, auth(cfg.Tokens, c))
	}
	if cfg.RateLimit > 0 {
		mw = append(mw, newLimiter(&cfg).wrap)
	}
	if cfg.ShedP99 > 0 {
		mw = append(mw, newShedder(&cfg).wrap)
	}
	return chain(h, mw...)
}

// countRequests ticks the total-requests counter for every non-exempt
// request entering the chain, admitted or not.
func countRequests(c *metrics.IngressCounters) layer {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !Exempt(r.URL.Path) {
				c.Requests.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
}
