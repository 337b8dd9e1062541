package middleware

import (
	"io"
	"net/http"
	"time"

	"gridsched/internal/metrics"
)

// Config assembles the full production ingress chain. Zero-value fields
// disable their middleware: a nil Tokens runs without authentication, a
// zero RateLimit without throttling, a zero ShedP99 without shedding —
// so a dev gridschedd with no flags behaves exactly as before, just with
// tracing and panic containment.
type Config struct {
	// Counters receives every ingress decision; nil allocates a private
	// set (they are still served at /metrics via the chain).
	Counters *metrics.IngressCounters
	// Log receives the buffered request logs and panic stacks (default
	// os.Stderr).
	Log io.Writer

	// Tokens enables bearer-token auth when non-nil.
	Tokens *TokenStore

	// RateLimit enables token-bucket throttling (requests/second per
	// client IP; per-tenant buckets scale by weight) when > 0. RateBurst
	// is the bucket depth (0 picks 2×RateLimit).
	RateLimit float64
	RateBurst float64

	// ShedP99 enables latency-based load shedding when > 0: once the p99
	// of admitted requests breaches it, submits and pulls are shed 429,
	// lightest tenants first. The remaining Shed* knobs tune the sample
	// floor and cadence (zero values pick the LoadShedConfig defaults).
	ShedP99        time.Duration
	ShedMinSamples int
	ShedEvalEvery  time.Duration

	// TenantWeight resolves tenant fair-share weights for the rate
	// limiter and the shedder (internal/service.Service.TenantWeight).
	TenantWeight func(tenant string) int64

	// Now is the clock (tests); nil is time.Now.
	Now func() time.Time
}

// Ingress wraps h in the production middleware chain, outermost first:
//
//	Logging → Recover → MetricsText → Auth → RateLimit → LoadShed → h
//
// The order is fixed and load-bearing: Logging is outermost so every
// deeper decision lands in a trace-stamped buffer; Recover sits above
// everything that could panic; MetricsText decorates /metrics before
// auth so the scrape endpoint stays open; Auth runs before RateLimit so
// tenant buckets key off verified principals; LoadShed is innermost so
// its latency window measures (and protects) only authenticated,
// unthrottled traffic.
func Ingress(cfg Config, h http.Handler) http.Handler {
	c := cfg.Counters
	if c == nil {
		c = metrics.NewIngressCounters()
	}
	mw := []Middleware{
		Logging(cfg.Log),
		Recover(c, cfg.Log),
		MetricsText(c),
		countRequests(c),
	}
	if cfg.Tokens != nil {
		mw = append(mw, Auth(cfg.Tokens, c))
	}
	if cfg.RateLimit > 0 {
		mw = append(mw, RateLimit(RateLimitConfig{
			Rate:         cfg.RateLimit,
			Burst:        cfg.RateBurst,
			TenantWeight: cfg.TenantWeight,
			Now:          cfg.Now,
		}, c))
	}
	if cfg.ShedP99 > 0 {
		mw = append(mw, LoadShed(LoadShedConfig{
			P99:          cfg.ShedP99,
			MinSamples:   cfg.ShedMinSamples,
			EvalEvery:    cfg.ShedEvalEvery,
			TenantWeight: cfg.TenantWeight,
			Now:          cfg.Now,
		}, c))
	}
	return Chain(h, mw...)
}

// countRequests ticks the total-requests counter for every non-exempt
// request entering the chain, admitted or not.
func countRequests(c *metrics.IngressCounters) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !Exempt(r.URL.Path) {
				c.Requests.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
}
