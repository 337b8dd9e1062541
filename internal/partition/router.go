package partition

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/service/api"
)

// maxReplyBytes bounds what the router buffers of one partition's answer to
// an aggregate leg (and of the quota body it fans out) — the same cap the
// service puts on bodies.
const maxReplyBytes = 64 << 20

// Config configures a Router.
type Config struct {
	// Partitions are the partitions' base URLs in index order: the i-th
	// entry must be the daemon running with -partition-index i. Length is
	// the partition count.
	Partitions []string
	// AggregateTimeout bounds each per-partition leg of a fan-out read
	// (GET /v1/jobs, /v1/tenants, /v1/workers, /metrics, probes).
	// Defaults to 10s. Keyed forwards are not bounded by the router; the
	// client's own context governs long polls and streams.
	AggregateTimeout time.Duration
}

// Router is the job-keyed HTTP front for a partitioned deployment. It is
// stateless — every routing decision is arithmetic on the request itself
// — except for a last-known per-partition health mark used to steer
// unkeyed placements (register, keyless submit) away from dead
// partitions and to label aggregate responses.
type Router struct {
	urls    []string
	proxies []*httputil.ReverseProxy
	client  *http.Client // fan-out reads and probes
	aggTO   time.Duration
	rr      atomic.Uint64

	mu   sync.Mutex
	down []string // last forward/probe error per partition; "" = up
}

// New validates cfg and builds the router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Partitions) == 0 {
		return nil, fmt.Errorf("partition: no partitions configured")
	}
	// One pooled transport, sized for many concurrent worker streams,
	// carries forwards and fan-out reads alike.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 256
	rt := &Router{
		urls:   make([]string, len(cfg.Partitions)),
		client: &http.Client{Transport: transport},
		aggTO:  cfg.AggregateTimeout,
		down:   make([]string, len(cfg.Partitions)),
	}
	if rt.aggTO <= 0 {
		rt.aggTO = 10 * time.Second
	}
	for i, raw := range cfg.Partitions {
		base := strings.TrimRight(raw, "/")
		target, err := url.Parse(base)
		if err != nil || target.Scheme == "" || target.Host == "" {
			return nil, fmt.Errorf("partition: bad partition %d URL %q", i, raw)
		}
		rt.urls[i] = base
		i := i
		rt.proxies = append(rt.proxies, &httputil.ReverseProxy{
			Rewrite: func(pr *httputil.ProxyRequest) {
				pr.SetURL(target)
				pr.Out.Host = target.Host
				// SetURL joins paths; the targets are bare hosts, so the
				// inbound path passes through unchanged.
				//
				// Expect: 100-continue is between the client and this hop,
				// which answers it when the proxy first reads the body. Sent
				// on, it makes a partition that answers before the end of a
				// large body (413, 400, 401) drop the connection at once
				// instead of lingering — net/http only lingers over a plain
				// body — and the reset then beats the answer here: a 503.
				pr.Out.Header.Del("Expect")
			},
			Transport: transport,
			// Immediate flush: lease-stream frames and long-poll responses
			// must not sit in a proxy buffer.
			FlushInterval: -1,
			ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
				rt.mark(i, err)
				api.WriteJSON(w, http.StatusServiceUnavailable,
					api.ErrorResponse{Error: fmt.Sprintf("partition %d unreachable: %v", i, err)})
			},
			ModifyResponse: func(*http.Response) error {
				rt.mark(i, nil)
				return nil
			},
		})
	}
	return rt, nil
}

func (rt *Router) mark(i int, err error) {
	rt.mu.Lock()
	if err != nil {
		rt.down[i] = err.Error()
	} else {
		rt.down[i] = ""
	}
	rt.mu.Unlock()
}

func (rt *Router) downErr(i int) string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.down[i]
}

// pick chooses a partition for an unkeyed placement: round-robin,
// skipping partitions last seen down (they still get retried once the
// rotation has no live alternative).
func (rt *Router) pick() int {
	n := len(rt.urls)
	start := int(rt.rr.Add(1)-1) % n
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if rt.down[i] == "" {
			return i
		}
	}
	return start
}

// Handler returns the router's HTTP surface: the service's own route
// table, with id-keyed routes forwarded to the owning partition, unkeyed
// placements spread round-robin, and cross-partition reads aggregated.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", rt.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.forwardByID("id"))
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.forwardByID("id"))
	mux.HandleFunc("GET /v1/tenants", rt.handleTenants)
	mux.HandleFunc("PUT /v1/tenants/{tenant}", rt.handleTenantQuota)
	mux.HandleFunc("POST /v1/workers", rt.handleRegister)
	mux.HandleFunc("GET /v1/workers", rt.handleWorkers)
	mux.HandleFunc("DELETE /v1/workers/{id}", rt.forwardByID("id"))
	mux.HandleFunc("POST /v1/workers/{id}/pull", rt.forwardByID("id"))
	mux.HandleFunc("GET /v1/workers/{id}/stream", rt.forwardByID("id"))
	mux.HandleFunc("POST /v1/workers/{id}/reports", rt.forwardByID("id"))
	mux.HandleFunc("POST /v1/assignments/{id}/heartbeat", rt.forwardByID("id"))
	mux.HandleFunc("POST /v1/assignments/{id}/report", rt.forwardByID("id"))
	mux.HandleFunc("GET /v1/partitions", rt.handlePartitions)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	// Everything else (replication internals, promotion) is a
	// per-partition operator action with no routing key.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusNotFound,
			api.ErrorResponse{Error: fmt.Sprintf("partition router: %s %s has no routing key; address a partition directly (GET /v1/partitions lists them)", r.Method, r.URL.Path)})
	})
	return mux
}

// forwardByID routes a request whose {pathValue} path segment is a
// minted id to the partition that minted it.
func (rt *Router) forwardByID(pathValue string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue(pathValue)
		owner, ok := Owner(id, len(rt.urls))
		if !ok {
			api.WriteJSON(w, http.StatusNotFound,
				api.ErrorResponse{Error: fmt.Sprintf("partition router: id %q has no partition key", id)})
			return
		}
		rt.proxies[owner].ServeHTTP(w, r)
	}
}

// handleSubmit places a job submission without reading it: on the partition
// its api.SubmissionIDHeader hashes to (so a retry dedupes against the
// original), or round-robin when the request carries none. The body streams
// through untouched, whichever codec it is in; the partition decodes it
// anyway, and is the one to refuse a header that is not the body's key, or a
// key that round-robin brought to a partition that does not own it.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var target int
	if sid := r.Header.Get(api.SubmissionIDHeader); sid != "" {
		target = SubmitOwner(sid, len(rt.urls))
	} else {
		target = rt.pick()
	}
	rt.proxies[target].ServeHTTP(w, r)
}

// handleRegister places a new worker on a live partition. The worker's
// minted id carries the partition's residue, so every subsequent
// id-keyed call (pull, stream, reports, heartbeat, report) pins to the
// partition that granted it.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	rt.proxies[rt.placeWorker(r.Context())].ServeHTTP(w, r)
}

// placeWorker chooses the partition for a fresh registration: the live
// partition with the most open jobs, so a fleet re-registering after a
// failover lands where the work is waiting instead of piling onto
// whichever partition round-robin offers next. Without this, a restarted
// partition that recovered open jobs from its journal would never see a
// worker again — the fleet migrated to the survivors during the outage
// and idle workers have no reason to move on their own (client.RunWorker
// re-registers after one idle lease TTL, but lands back only through this
// placement).
// Ties — including the all-idle steady state, where every partition
// reports zero — fall back to round-robin. Registration is rare, so the
// health probe per call is cheap.
func (rt *Router) placeWorker(ctx context.Context) int {
	parts, _ := fanOut[api.Health](rt, ctx, "", "/healthz") // unauthenticated probe
	maxOpen := 0
	for _, p := range parts {
		if p != nil && p.OpenJobs > maxOpen {
			maxOpen = p.OpenJobs
		}
	}
	if maxOpen == 0 {
		return rt.pick()
	}
	var busiest []int
	for i, p := range parts {
		if p != nil && p.OpenJobs == maxOpen {
			busiest = append(busiest, i)
		}
	}
	return busiest[int(rt.rr.Add(1)-1)%len(busiest)]
}

// refusal is a partition's non-2xx answer to a fan-out leg.
type refusal struct {
	code int
	msg  string
}

func (e *refusal) Error() string { return e.msg }

// authRefusal picks the answers an aggregate read relays: a 401 or 403
// means the partition is up and said no, so the caller — not the
// deployment — has something to fix, and gets that status back instead of
// "unreachable".
func authRefusal(code int) bool {
	return code == http.StatusUnauthorized || code == http.StatusForbidden
}

// fanOut performs one aggregate GET against every partition, presenting
// the caller's Authorization header (auth, "" for none) to each, and
// decodes each JSON response into a fresh V. Failed partitions come back as
// nil entries; denied is the lowest-indexed partition's refusal of the
// credentials, if any.
func fanOut[V any](rt *Router, ctx context.Context, auth, path string) (out []*V, denied *refusal) {
	out, denied, _ = fanOutAs[V](rt, ctx, http.MethodGet, path, auth, nil, json.Unmarshal, authRefusal)
	return out, denied
}

// fanOutAs sends method path, with body when it is not nil, to every
// partition at once, presenting auth, and decodes each 2xx body into a
// fresh V with decode (json.Unmarshal's shape). A non-2xx answer whose
// status relay accepts is the partition's refusal: it is marked up, and the
// lowest-indexed refusal comes back as denied. Any other failure — no
// answer, another status, an undecodable body — leaves a nil entry and
// marks the partition down; the lowest-indexed one comes back as failed.
func fanOutAs[V any](rt *Router, ctx context.Context, method, path, auth string, body []byte,
	decode func([]byte, any) error, relay func(code int) bool) (out []*V, denied *refusal, failed error) {
	out = make([]*V, len(rt.urls))
	refused := make([]*refusal, len(rt.urls))
	errs := make([]error, len(rt.urls))
	var wg sync.WaitGroup
	for i := range rt.urls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var v V
			err := rt.send(ctx, i, method, path, auth, body, &v, decode)
			if r := (*refusal)(nil); errors.As(err, &r) && relay(r.code) {
				refused[i] = r
				rt.mark(i, nil) // it answered; the request is the problem
				return
			}
			rt.mark(i, err)
			if err == nil {
				out[i] = &v
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, r := range refused {
		if r != nil {
			return out, r, nil
		}
	}
	for _, err := range errs {
		if err != nil {
			return out, nil, err
		}
	}
	return out, nil, nil
}

// send is one leg of a fan-out: one request to partition i, its 2xx body
// decoded into v, any other answer a *refusal.
func (rt *Router) send(ctx context.Context, i int, method, path, auth string, body []byte, v any, decode func([]byte, any) error) error {
	ctx, cancel := context.WithTimeout(ctx, rt.aggTO)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.urls[i]+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		msg := fmt.Sprintf("partition %d: HTTP %d", i, resp.StatusCode)
		var e api.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = fmt.Sprintf("partition %d: %s", i, e.Error)
		}
		return &refusal{code: resp.StatusCode, msg: msg}
	}
	return decode(data, v)
}

// finishAggregate answers a fan-out: a partition's refusal of the
// caller's credentials as that status; otherwise a 200 with the
// PartitionsDownHeader naming unreachable partitions, or a 503 when no
// partition answered at all.
func finishAggregate[V any](w http.ResponseWriter, parts []*V, denied *refusal, body any) {
	if denied != nil {
		api.WriteJSON(w, denied.code, api.ErrorResponse{Error: denied.msg})
		return
	}
	var downIdx []string
	alive := 0
	for i, p := range parts {
		if p == nil {
			downIdx = append(downIdx, fmt.Sprint(i))
		} else {
			alive++
		}
	}
	if alive == 0 {
		api.WriteJSON(w, http.StatusServiceUnavailable,
			api.ErrorResponse{Error: fmt.Sprintf("all %d partitions unreachable", len(parts))})
		return
	}
	if len(downIdx) > 0 {
		w.Header().Set(api.PartitionsDownHeader, strings.Join(downIdx, ","))
	}
	api.WriteJSON(w, http.StatusOK, body)
}
