package middleware

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries the request trace ID on both requests (clients may
// supply one to correlate across systems) and responses (the server echoes
// or generates one).
const TraceHeader = "X-Trace-Id"

// maxTraceID bounds accepted client-supplied trace IDs; longer ones are
// replaced rather than propagated into logs and headers.
const maxTraceID = 64

// validTraceID reports whether a client-supplied trace ID is safe to
// adopt: bounded length, drawn entirely from [A-Za-z0-9_.-]. Anything
// else — newlines, spaces, '=' — could split or forge entries in the
// flushed log (the lines interpolate the ID verbatim), so such IDs are
// replaced, not propagated.
func validTraceID(s string) bool {
	if s == "" || len(s) > maxTraceID {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// traceNonce distinguishes processes; trace IDs are nonce + a process
// sequence number, which is unique enough for correlation and far cheaper
// than per-request crypto randomness on the happy path.
var (
	traceNonce = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("middleware: trace nonce: %v", err))
		}
		return hex.EncodeToString(b[:])
	}()
	traceSeq atomic.Uint64
)

func newTraceID() string {
	var b [32]byte
	n := copy(b[:], traceNonce)
	b[n] = '-'
	return string(strconv.AppendUint(b[:n+1], traceSeq.Add(1), 16))
}

type ctxKey int

const reqStateKey ctxKey = 0

// reqState is the per-request scratch the chain shares through the
// context: the trace ID, the status-recording response writer, the
// buffered log lines, the authenticated principal, and the resolved
// tenant weight. Folding all of it into one struct keeps the chain's
// hot path to a single allocation plus the context it rides in — Auth
// stores the principal here instead of wrapping a second context, and
// the rate limiter and shedder share one tenant-weight resolution.
type reqState struct {
	trace string
	start time.Time
	sw    statusWriter

	mu      sync.Mutex
	lines   []string
	dropped int

	principal    Principal
	hasPrincipal bool

	weight    int64
	hasWeight bool

	// parked accumulates nanoseconds the handler spent deliberately
	// waiting (long-poll pull parks, reported via ObserveParked); the
	// load shedder subtracts it so an idle worker's empty 2s poll is not
	// read as a 2s service latency.
	parked atomic.Int64
}

// state returns the request state logging installed.
func state(r *http.Request) *reqState {
	return r.Context().Value(reqStateKey).(*reqState)
}

// logging is the outermost layer: it assigns (or adopts)
// the request's trace ID, exposes it via the response header and the
// context, and times the request. Log lines appended via Logf are
// buffered in the request's state and flushed — with the trace ID, route,
// status, and duration — only when the response is an error or a shed
// (5xx, 401, 403, 429), so a healthy request writes nothing anywhere.
func logging(out io.Writer) layer {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// TraceHeader is already in canonical MIME form, so indexing
			// the header maps directly skips Get/Set's canonicalization
			// scan on the hottest two header operations in the chain.
			var trace string
			if vv := r.Header[TraceHeader]; len(vv) > 0 {
				trace = vv[0]
			}
			if !validTraceID(trace) {
				trace = newTraceID()
			}
			st := &reqState{trace: trace, start: time.Now()}
			st.sw.ResponseWriter = w
			w.Header()[TraceHeader] = []string{trace}
			next.ServeHTTP(&st.sw, r.WithContext(context.WithValue(r.Context(), reqStateKey, st)))
			if flushWorthy(st.sw.status) {
				st.flush(out, r, st.sw.status, time.Since(st.start))
			}
		})
	}
}

// flushWorthy reports whether a response status should flush the request's
// buffered log: server errors, auth rejections, and throttle/shed 429s.
func flushWorthy(status int) bool {
	switch {
	case status >= 500:
		return true
	case status == http.StatusUnauthorized, status == http.StatusForbidden,
		status == http.StatusTooManyRequests:
		return true
	}
	return false
}

// flush writes the request summary line plus every buffered line in one
// Write, so concurrent flushes do not interleave mid-request.
func (st *reqState) flush(out io.Writer, r *http.Request, status int, d time.Duration) {
	st.mu.Lock()
	lines, dropped := st.lines, st.dropped
	st.mu.Unlock()
	buf := make([]byte, 0, 160+64*len(lines))
	buf = fmt.Appendf(buf, "ingress time=%s trace=%s method=%s path=%s status=%d dur=%s remote=%s\n",
		time.Now().UTC().Format(time.RFC3339Nano), st.trace, r.Method, r.URL.Path, status,
		d.Round(time.Microsecond), r.RemoteAddr)
	for _, l := range lines {
		buf = fmt.Appendf(buf, "ingress trace=%s %s\n", st.trace, l)
	}
	if dropped > 0 {
		buf = fmt.Appendf(buf, "ingress trace=%s log-lines-dropped=%d (cap %d)\n", st.trace, dropped, maxBufferedLines)
	}
	_, _ = out.Write(buf)
}

// maxBufferedLines caps one request's buffered log. Classic requests log a
// line or two, but a streaming request (the lease channel stays open for a
// worker's whole tenure) funnels every Logf of its lifetime through one
// reqState — without a cap, a chatty hours-long stream would grow the
// buffer without bound. Past the cap lines are counted, not stored, and
// the flush reports how many were dropped.
const maxBufferedLines = 64

// Logf appends one line to the request's buffered log (capped at
// maxBufferedLines; see above). Outside the ingress chain (no state in
// ctx) it is a no-op, so library code can call it unconditionally.
func Logf(ctx context.Context, format string, args ...any) {
	st, _ := ctx.Value(reqStateKey).(*reqState)
	if st == nil {
		return
	}
	line := fmt.Sprintf(format, args...)
	st.mu.Lock()
	if len(st.lines) < maxBufferedLines {
		st.lines = append(st.lines, line)
	} else {
		st.dropped++
	}
	st.mu.Unlock()
}

// TraceID returns the request's trace ID ("" outside the ingress chain).
func TraceID(ctx context.Context) string {
	if st, _ := ctx.Value(reqStateKey).(*reqState); st != nil {
		return st.trace
	}
	return ""
}
