// Package middleware is gridschedd's production ingress: one fixed chain
// of http.Handler wrappers, built by Ingress from one Config, installed in
// front of the service mux (internal/service) by the daemon
// (cmd/gridschedd), and by a process that embeds the service and reaches it
// over client.InProcess (examples/live-cluster).
//
// The chain's layers, outermost first (see Ingress):
//
//  1. logging — request-scoped structured logging with generated trace
//     IDs propagated via the X-Trace-Id header and the request context.
//     Log lines are buffered per request and flushed only on error or
//     shed, so the happy path pays near zero.
//  2. recoverPanics — converts handler panics into 500s plus a metric
//     instead of killing the daemon.
//  3. metricsText — appends the chain's own counters to GET /metrics.
//  4. auth — per-tenant bearer-token authentication from a hot-reloadable
//     token file; admin endpoints require an admin token.
//  5. the rate limiter — token buckets keyed by client IP and by
//     authenticated tenant, tenant limits scaled by fair-share weight.
//  6. the load shedder — latency-based admission control: when the request
//     p99 breaches a bound, pulls and submits are shed 429 + Retry-After,
//     low-weight tenants first and the heaviest tenants last.
//
// The layers are not a kit: each relies on logging having installed the
// request state first, which only Ingress guarantees.
//
// GET /healthz, /readyz, and /metrics bypass auth, rate limiting, and
// shedding (Exempt) so probes never lie about the process. Decisions are
// exported as counters/gauges (metrics.IngressCounters) appended to the
// service's /metrics output. docs/INGRESS.md is the operator guide.
package middleware

import "net/http"

// layer is one onion layer: it receives the next handler and returns the
// wrapped one.
type layer func(http.Handler) http.Handler

// chain wraps h in mw such that mw[0] is the outermost layer — requests
// traverse mw[0], mw[1], …, then h; responses unwind in reverse.
func chain(h http.Handler, mw ...layer) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// Exempt reports whether path is a probe or metrics endpoint that
// bypasses auth, rate limiting, and load shedding: orchestrator probes
// and scrapers must see the truth even (especially) when the daemon is
// overloaded or the operator fat-fingered the token file.
func Exempt(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return false
}

// statusWriter records the response status so outer layers (logging,
// recovery, metrics append) can observe what inner layers wrote. logging
// installs the request's one statusWriter; the layers below it find it as
// their http.ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards http.Flusher through the wrapper — embedding the
// ResponseWriter interface promotes only its three methods, which would
// otherwise strand streaming handlers (the replication stream) behind the
// ingress chain.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
