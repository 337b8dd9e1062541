package middleware

import (
	"fmt"
	"io"
	"net/http"
	"runtime/debug"

	"gridsched/internal/metrics"

	"gridsched/internal/service/api"
)

// recoverPanics converts a handler panic into a 500 response plus a metric
// (IngressCounters.Panics) instead of letting net/http kill the
// connection (the in-process transport fails the round trip). The
// panic value and stack go to out immediately, and a line lands in the
// request's buffered log so the logging flush carries the trace ID
// alongside.
//
// http.ErrAbortHandler is re-panicked untouched: it is net/http's
// sanctioned way to abort a response and is not a failure.
func recoverPanics(c *metrics.IngressCounters, out io.Writer) layer {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := w.(*statusWriter)
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p)
				}
				c.Panics.Add(1)
				Logf(r.Context(), "panic=%q", fmt.Sprint(p))
				fmt.Fprintf(out, "ingress: panic serving %s %s (trace %s): %v\n%s",
					r.Method, r.URL.Path, TraceID(r.Context()), p, debug.Stack())
				if sw.status == 0 {
					api.WriteJSON(sw, http.StatusInternalServerError, api.ErrorResponse{Error: "internal server error"})
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// metricsText appends the ingress chain's own families to a successful
// GET /metrics response. The chain's families are none of the inner
// handler's, so writing them after its body leaves every family one group
// and keeps the two decoupled: internal/service serves its families without
// knowing a chain exists, and the chain adds its own on the way out.
func metricsText(c *metrics.IngressCounters) layer {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || r.URL.Path != "/metrics" {
				next.ServeHTTP(w, r)
				return
			}
			sw := w.(*statusWriter)
			next.ServeHTTP(sw, r)
			if sw.status == http.StatusOK {
				_ = metrics.Write(sw, c.Metrics())
			}
		})
	}
}
