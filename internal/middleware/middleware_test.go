package middleware

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridsched/internal/metrics"
	"gridsched/internal/service/api"
	"gridsched/internal/testkit"
)

func TestChainOrder(t *testing.T) {
	var got []string
	tag := func(name string) layer {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				got = append(got, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, "handler")
	}), tag("a"), tag("b"), tag("c"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	want := "a,b,c,handler"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("traversal order %q, want %q", s, want)
	}
}

// TestRecoverPanic: a panicking handler must yield a 500 with the standard
// error body, tick the panic counter, and leave the server able to serve
// the next request.
func TestRecoverPanic(t *testing.T) {
	c := metrics.NewIngressCounters()
	var log bytes.Buffer
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("kaboom")
		}
		w.WriteHeader(http.StatusOK)
	}), logging(&log), recoverPanics(c, &log))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", rec.Code)
	}
	var e api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("panic body %q: not the standard error schema (err %v)", rec.Body.String(), err)
	}
	if got := c.Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	if !strings.Contains(log.String(), "kaboom") {
		t.Fatalf("panic value not logged:\n%s", log.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fine", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic request status = %d, want 200", rec.Code)
	}
}

// TestTraceID: the chain generates a trace ID, exposes it to the handler
// via the context, and returns it in the response header; a well-formed
// client-supplied ID is adopted instead.
func TestTraceID(t *testing.T) {
	var seen string
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = TraceID(r.Context())
	}), logging(&bytes.Buffer{}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if seen == "" {
		t.Fatal("handler saw no trace ID")
	}
	if got := rec.Header().Get(TraceHeader); got != seen {
		t.Fatalf("response %s = %q, handler saw %q", TraceHeader, got, seen)
	}

	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(TraceHeader, "caller-supplied-1")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "caller-supplied-1" || rec.Header().Get(TraceHeader) != "caller-supplied-1" {
		t.Fatalf("client trace not adopted: handler %q, header %q", seen, rec.Header().Get(TraceHeader))
	}

	// Oversized IDs are replaced, not propagated.
	req = httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(TraceHeader, strings.Repeat("x", maxTraceID+1))
	h.ServeHTTP(httptest.NewRecorder(), req)
	if len(seen) > maxTraceID {
		t.Fatalf("oversized client trace propagated (%d bytes)", len(seen))
	}

	// IDs with characters outside [A-Za-z0-9_.-] are replaced too: they
	// are interpolated verbatim into flushed log lines, so a newline or
	// "key=value" text could forge or split trace-stamped entries.
	for _, evil := range []string{
		"evil\ningress trace=forged status=200",
		"id status=500",
		"id=x",
		"тrace", // non-ASCII
	} {
		req = httptest.NewRequest("GET", "/x", nil)
		req.Header[TraceHeader] = []string{evil}
		h.ServeHTTP(httptest.NewRecorder(), req)
		if seen == evil {
			t.Fatalf("unsafe client trace %q adopted", evil)
		}
	}
}

// TestLoggingBuffered: a healthy request writes nothing; an error-class
// response flushes the summary plus every Logf line, trace-stamped.
func TestLoggingBuffered(t *testing.T) {
	var out bytes.Buffer
	status := http.StatusOK
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Logf(r.Context(), "step=%s", "probe")
		w.WriteHeader(status)
	}), logging(&out))

	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ok", nil))
	if out.Len() != 0 {
		t.Fatalf("healthy request flushed logs:\n%s", out.String())
	}

	status = http.StatusInternalServerError
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/bad", nil))
	s := out.String()
	if !strings.Contains(s, "status=500") || !strings.Contains(s, "step=probe") || !strings.Contains(s, "trace=") {
		t.Fatalf("error flush missing fields:\n%s", s)
	}
}

func authedChain(store *TokenStore, c *metrics.IngressCounters) http.Handler {
	return chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, _ := PrincipalFrom(r.Context())
		fmt.Fprintf(w, "tenant=%s admin=%v", p.Tenant, p.Admin)
	}), logging(&bytes.Buffer{}), auth(store, c))
}

func get(t *testing.T, h http.Handler, method, path, token string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestAuth(t *testing.T) {
	c := metrics.NewIngressCounters()
	store := NewTokenStore(map[string]Principal{
		"tok-gold":  {Tenant: "gold"},
		"tok-admin": {Tenant: "ops", Admin: true},
	})
	h := authedChain(store, c)

	if rec := get(t, h, "POST", "/v1/jobs", ""); rec.Code != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", rec.Code)
	} else if rec.Header().Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate")
	}
	if rec := get(t, h, "POST", "/v1/jobs", "nope"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unknown token: %d, want 401", rec.Code)
	}
	if rec := get(t, h, "POST", "/v1/jobs", "tok-gold"); rec.Code != http.StatusOK ||
		rec.Body.String() != "tenant=gold admin=false" {
		t.Fatalf("valid token: %d %q", rec.Code, rec.Body.String())
	}
	// Probes and metrics stay open without any token.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if rec := get(t, h, "GET", path, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s with auth enabled: %d, want 200", path, rec.Code)
		}
	}
	// Admin endpoints: tenant tokens are 403, admin tokens pass.
	if rec := get(t, h, "PUT", "/v1/tenants/gold", "tok-gold"); rec.Code != http.StatusForbidden {
		t.Fatalf("non-admin on admin endpoint: %d, want 403", rec.Code)
	}
	if rec := get(t, h, "PUT", "/v1/tenants/gold", "tok-admin"); rec.Code != http.StatusOK {
		t.Fatalf("admin on admin endpoint: %d, want 200", rec.Code)
	}
	if c.AuthFailures.Load() != 2 || c.AuthDenied.Load() != 1 {
		t.Fatalf("counters: failures=%d denied=%d, want 2/1", c.AuthFailures.Load(), c.AuthDenied.Load())
	}
}

// TestTokenStoreReload: edits to the token file take effect on Reload
// (SIGHUP in the daemon), and a broken edit keeps the previous table
// instead of locking everyone out.
func TestTokenStoreReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tokens.conf")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	write("# staff\ntok-a alice\ntok-b bob admin\n")
	store, err := LoadTokenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("Len = %d, want 2", store.Len())
	}
	if p, ok := store.lookup("tok-b"); !ok || p.Tenant != "bob" || !p.Admin {
		t.Fatalf("tok-b = %+v %v", p, ok)
	}

	write("tok-c carol\n")
	if err := store.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.lookup("tok-a"); ok {
		t.Fatal("revoked token still valid after reload")
	}
	if _, ok := store.lookup("tok-c"); !ok {
		t.Fatal("new token not loaded")
	}

	write("this line has way too many fields to parse\n")
	if err := store.Reload(); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, ok := store.lookup("tok-c"); !ok {
		t.Fatal("previous table not kept after failed reload")
	}
}

func TestParseTokens(t *testing.T) {
	if _, err := parseTokens([]byte("tok a\ntok b\n")); err == nil {
		t.Fatal("duplicate token accepted")
	}
	if _, err := parseTokens([]byte("tok a superuser\n")); err == nil {
		t.Fatal("unknown flag accepted")
	}
	tokens, err := parseTokens([]byte("tok - \n"))
	if err != nil {
		t.Fatal(err)
	}
	if p := tokens["tok"]; p.Tenant != "" || p.Admin {
		t.Fatalf("dash tenant = %+v, want default tenant", p)
	}
}

// fakeClock is a manually advanced time source shared by the rate-limit
// and shed tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }
func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestBucketRefill pins the token-bucket math: burst spends down, tokens
// accrue at the configured rate, and the retry hint is the exact time to
// the next whole token.
func TestBucketRefill(t *testing.T) {
	clock := newFakeClock()
	l := newLimiter(&Config{RateLimit: 2, RateBurst: 2, Now: clock.now})
	l.maxBuckets = 16

	for i := 0; i < 2; i++ {
		if ok, _ := l.take(l.ip, "k", 2, 2, clock.now()); !ok {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	ok, retry := l.take(l.ip, "k", 2, 2, clock.now())
	if ok {
		t.Fatal("take beyond burst allowed")
	}
	if retry != 500*time.Millisecond {
		t.Fatalf("retry hint = %s, want 500ms (1 token at 2/s)", retry)
	}
	clock.advance(250 * time.Millisecond) // 0.5 tokens: still short
	if ok, retry := l.take(l.ip, "k", 2, 2, clock.now()); ok || retry != 250*time.Millisecond {
		t.Fatalf("after 250ms: ok=%v retry=%s, want refused/250ms", ok, retry)
	}
	clock.advance(250 * time.Millisecond) // the full token arrived
	if ok, _ := l.take(l.ip, "k", 2, 2, clock.now()); !ok {
		t.Fatal("take after full refill interval refused")
	}
	clock.advance(time.Hour) // refill caps at burst, not rate×elapsed
	for i := 0; i < 2; i++ {
		if ok, _ := l.take(l.ip, "k", 2, 2, clock.now()); !ok {
			t.Fatalf("take %d after long idle refused", i)
		}
	}
	if ok, _ := l.take(l.ip, "k", 2, 2, clock.now()); ok {
		t.Fatal("burst not capped after long idle")
	}
}

// TestRateLimitEvictionSparesWeightedTenants: tenant buckets are created
// with burst = RateBurst×weight, so a weight-4 tenant actively being
// limited holds more than RateBurst tokens most of the time. Eviction must judge
// each bucket against its OWN capacity — deleting the tenant's bucket
// would recreate it full on the next request, resetting the limit and
// granting a free 4× burst whenever the table is under pressure.
func TestRateLimitEvictionSparesWeightedTenants(t *testing.T) {
	clock := newFakeClock()
	l := newLimiter(&Config{RateLimit: 1, RateBurst: 2, Now: clock.now})
	l.maxBuckets = 64
	// The weight-4 tenant (rate 4, burst 8) spends one token: 7 left —
	// above RateBurst (2) but below its own capacity, i.e. mid-spend.
	l.take(l.ten, "gold", 4, 8, clock.now())
	// An IP bucket goes idle long enough to refill completely.
	l.take(l.ip, "198.51.100.9", 1, 2, clock.now())
	clock.advance(3 * time.Second)
	l.take(l.ten, "gold", 4, 8, clock.now()) // active again: refilled to cap, spends 1

	l.mu.Lock()
	l.evict(clock.now())
	l.mu.Unlock()
	if l.ten["gold"] == nil {
		t.Fatal("active weighted tenant bucket evicted (judged against base burst)")
	}
	if l.ip["198.51.100.9"] != nil {
		t.Fatal("fully refilled idle IP bucket not evicted")
	}
}

// TestRateLimitHardBound: a sustained flood of unique client IPs creates
// buckets that are all mid-spend (not reclaimable by evict), so the
// limiter must fall back to dropping the least recently active — the
// table may never exceed its bound.
func TestRateLimitHardBound(t *testing.T) {
	clock := newFakeClock()
	cfg := Config{RateLimit: 1, RateBurst: 4, Now: clock.now}
	l := newLimiter(&cfg)
	l.maxBuckets = 8
	for i := 0; i < 100; i++ {
		l.take(l.ip, fmt.Sprintf("10.0.%d.%d", i/256, i%256), cfg.RateLimit, cfg.RateBurst, clock.now())
		if n := len(l.ip) + len(l.ten); n > l.maxBuckets {
			t.Fatalf("bucket table grew to %d after %d unique IPs, want <= %d", n, i+1, l.maxBuckets)
		}
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	clock := newFakeClock()
	c := metrics.NewIngressCounters()
	h := Ingress(Config{Counters: c, Log: &bytes.Buffer{}, RateLimit: 1, RateBurst: 1, Now: clock.now},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))

	req := func(path string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("POST", path, nil)
		r.RemoteAddr = "198.51.100.7:4242"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	if rec := req("/v1/jobs"); rec.Code != http.StatusOK {
		t.Fatalf("first request: %d", rec.Code)
	}
	rec := req("/v1/jobs")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if c.ThrottledIP.Load() != 1 {
		t.Fatalf("ThrottledIP = %d, want 1", c.ThrottledIP.Load())
	}
	// Probes are never throttled, even from an exhausted IP.
	if rec := req("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz throttled: %d", rec.Code)
	}
}

// TestLoadShedWeightedOrdering drives the shedder with a fake clock and
// proves the ordering contract: under a sustained p99 breach the
// weight-1 tenant is shed while the weight-4 tenant still passes; one
// escalation later both shed; and the first decay tick readmits the
// heavy tenant first.
func TestLoadShedWeightedOrdering(t *testing.T) {
	clock := newFakeClock()
	c := metrics.NewIngressCounters()
	weights := map[string]int64{"bronze": 1, "gold": 4}
	slow := true // while set, the handler "takes" 1ms of fake time
	h := Ingress(Config{
		Counters:       c,
		Log:            &bytes.Buffer{},
		Tokens:         NewTokenStore(map[string]Principal{"tok-bronze": {Tenant: "bronze"}, "tok-gold": {Tenant: "gold"}}),
		ShedP99:        500 * time.Microsecond,
		ShedMinSamples: 2,
		ShedEvalEvery:  10 * time.Millisecond,
		TenantWeight:   func(tn string) int64 { return weights[tn] },
		Now:            clock.now,
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow {
			clock.advance(time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
	}))

	send := func(tenant, method, path string) int {
		r := httptest.NewRequest(method, path, nil)
		r.Header.Set("Authorization", "Bearer tok-"+tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code
	}

	// Fill the window with slow samples from both weight classes (GETs:
	// observed but never sheddable). The six requests advance fake time
	// 6ms total — inside one eval interval, so no escalation yet.
	for i := 0; i < 3; i++ {
		send("bronze", "GET", "/v1/jobs")
		send("gold", "GET", "/v1/jobs")
	}

	// First eval tick after the breach: level 1, bar = lightest class.
	clock.advance(11 * time.Millisecond)
	if code := send("bronze", "POST", "/v1/jobs"); code != http.StatusTooManyRequests {
		t.Fatalf("bronze submit at level 1: %d, want 429", code)
	}
	if code := send("gold", "POST", "/v1/jobs"); code != http.StatusOK {
		t.Fatalf("gold submit at level 1: %d, want 200 (sheds last)", code)
	}
	if code := send("bronze", "POST", "/v1/workers/w1/pull"); code != http.StatusTooManyRequests {
		t.Fatalf("bronze pull at level 1: %d, want 429", code)
	}
	// Reports are never shed, whatever the level: they retire work.
	if code := send("bronze", "POST", "/v1/assignments/a1/report"); code != http.StatusOK {
		t.Fatalf("bronze report at level 1: %d, want 200", code)
	}

	// Still breaching at the next tick: level 2 reaches the top class.
	clock.advance(11 * time.Millisecond)
	if code := send("gold", "POST", "/v1/jobs"); code != http.StatusTooManyRequests {
		t.Fatalf("gold submit at level 2: %d, want 429", code)
	}

	// Recovery: the handler is fast again and sheds kept the window from
	// refreshing, so the next ticks decay the level — gold readmitted
	// first, bronze still barred one tick later.
	slow = false
	clock.advance(11 * time.Millisecond)
	if code := send("gold", "POST", "/v1/jobs"); code != http.StatusOK {
		t.Fatalf("gold submit after first decay: %d, want 200", code)
	}
	if code := send("bronze", "POST", "/v1/jobs"); code != http.StatusTooManyRequests {
		t.Fatalf("bronze submit after first decay: %d, want 429 (readmitted last)", code)
	}

	shedOf := func(tenant string) int64 {
		v, _ := testkit.Lookup(c.Metrics(), "gridsched_ingress_tenant_sheds_total", "", metrics.Label{Name: "tenant", Value: tenant})
		return int64(v)
	}
	if shedOf("bronze") < 2 || shedOf("gold") != 1 {
		t.Fatalf("shed attribution: bronze=%d gold=%d", shedOf("bronze"), shedOf("gold"))
	}
	if c.Sheds.Load() != shedOf("bronze")+shedOf("gold") {
		t.Fatalf("Sheds=%d != per-tenant sum", c.Sheds.Load())
	}
}

// TestLoadShedIgnoresParkedWaits: an idle fleet long-polling for work
// parks server-side for the whole poll budget. The handler reports that
// wait via ObserveParked, and the shedder must subtract it — otherwise
// every empty 2s poll reads as a 2s latency, breaches any realistic p99
// bound, and sheds a completely unloaded system. Exercised both through
// the full chain (auth and rate limiting in front of the shedder) and with
// the shedder the only layer enabled.
func TestLoadShedIgnoresParkedWaits(t *testing.T) {
	for _, tc := range []struct {
		name string
		full bool
	}{{"full chain", true}, {"standalone", false}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			c := metrics.NewIngressCounters()
			handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				clock.advance(2 * time.Second) // the idle long-poll park
				ObserveParked(r.Context(), 2*time.Second)
				w.WriteHeader(http.StatusOK)
			})
			cfg := Config{
				Counters: c, Log: &bytes.Buffer{},
				ShedP99: 250 * time.Millisecond, ShedMinSamples: 2,
				ShedEvalEvery: 10 * time.Millisecond, Now: clock.now,
			}
			if tc.full {
				cfg.Tokens = NewTokenStore(map[string]Principal{"tok": {Tenant: "idle"}})
				cfg.RateLimit = 1000
			}
			h := Ingress(cfg, handler)
			// Every request is 2s of fake time apart, so each one lands on
			// an eval tick with a full window of parked-only samples.
			for i := 0; i < 20; i++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest("POST", "/v1/workers/w1/pull", nil)
				req.Header.Set("Authorization", "Bearer tok")
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("pull %d shed (%d) on an idle system: parked waits counted as latency", i, rec.Code)
				}
			}
			if lvl := c.ShedLevel.Load(); lvl != 0 {
				t.Fatalf("shed level = %d on an idle system, want 0", lvl)
			}
		})
	}
}

func TestLoadShedRetryAfterHeader(t *testing.T) {
	clock := newFakeClock()
	c := metrics.NewIngressCounters()
	s := newShedder(&Config{
		Counters: c, ShedP99: time.Millisecond, ShedMinSamples: 1,
		ShedEvalEvery: 10 * time.Millisecond, Now: clock.now,
	})
	s.retryAfter = 3 * time.Second
	h := chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		clock.advance(5 * time.Millisecond)
	}), logging(&bytes.Buffer{}), s.wrap)
	r := httptest.NewRequest("POST", "/v1/jobs", nil)
	h.ServeHTTP(httptest.NewRecorder(), r)
	clock.advance(11 * time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
}

// TestMetricsText: the chain appends its own families after the inner
// /metrics body, and the two together still read as one exposition.
func TestMetricsText(t *testing.T) {
	c := metrics.NewIngressCounters()
	var inner atomic.Int64
	inner.Store(42)
	h := Ingress(Config{Counters: c}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = metrics.Write(w, []metrics.Metric{metrics.Gauge("service_inner_metric", &inner)})
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/jobs", nil))
	c.ObserveShed("acme")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	ms, err := metrics.Read(rec.Body)
	if err != nil {
		t.Fatalf("the inner body plus the chain's is not a conformant exposition: %v", err)
	}
	if len(ms) == 0 || ms[0].Name != "service_inner_metric" {
		t.Fatalf("inner body lost or not first: %+v", ms)
	}
	for name, want := range map[string]float64{
		"service_inner_metric":             42,
		"gridsched_ingress_requests_total": 1, // probes and /metrics are exempt
		"gridsched_ingress_sheds_total":    1,
	} {
		if v, ok := testkit.Lookup(ms, name, ""); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, want)
		}
	}
	if v, ok := testkit.Lookup(ms, "gridsched_ingress_tenant_sheds_total", "", metrics.Label{Name: "tenant", Value: "acme"}); !ok || v != 1 {
		t.Errorf("per-tenant shed series = %v (present %v), want 1", v, ok)
	}
}

func TestPercentile(t *testing.T) {
	lw := metrics.NewLatencyWindow(8)
	for i := 1; i <= 100; i++ {
		lw.Observe(time.Duration(i) * time.Millisecond)
	}
	// Ring of 8: only 93..100ms survive.
	if got := lw.Percentile(1.0); got != 100*time.Millisecond {
		t.Fatalf("max = %s, want 100ms", got)
	}
	if got := lw.Percentile(0.5); got < 93*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("median %s outside resident window", got)
	}
	if lw.Samples() != 8 || lw.Total() != 100 {
		t.Fatalf("Samples=%d Total=%d, want 8/100", lw.Samples(), lw.Total())
	}
}

// TestResponseControllerReachesTheConnection: a handler behind the chain
// can still set its connection's deadlines with http.ResponseController,
// which finds the server's writer through statusWriter.Unwrap.
func TestResponseControllerReachesTheConnection(t *testing.T) {
	srv := httptest.NewServer(Ingress(Config{Log: &bytes.Buffer{}}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
			w.WriteHeader(http.StatusNotImplemented)
			fmt.Fprint(w, err)
		}
	})))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}
