// Package client is the Go client for the gridschedd HTTP/JSON protocol
// (internal/service, wire types in internal/service/api). It covers the
// whole surface — job submission and status, worker registration, long-poll
// pull, heartbeat, report — and provides RunWorker, the complete worker loop
// the gridworker binary runs, and a process embedding the service runs over
// InProcess (examples/live-cluster).
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// Client talks to a gridschedd deployment: one server, or (NewMulti) a
// replicated pair/group of which one is leader at a time. With multiple
// endpoints the client sticks to the one that answers and fails over on
// transport errors; a 421 Misdirected Request from a follower carries the
// leader's URL (api.LeaderHeader), which the client jumps to directly.
type Client struct {
	http *http.Client

	// mu guards endpoints/cur and the sweep-backoff state. endpoints never
	// shrinks; cur indexes the endpoint requests currently go to.
	mu        sync.Mutex
	endpoints []string
	cur       int
	// sweepFails counts consecutive transport-level failovers; once it
	// reaches len(endpoints) — a full rotation sweep with every endpoint
	// down — sweepDelay grows by the capped-jitter schedule and sweepSleep
	// arms, making the next attempt wait instead of spinning the rotation
	// in a tight loop against a fully-down deployment.
	sweepFails int
	sweepDelay time.Duration
	sweepSleep time.Duration

	// ResubmitWindow bounds how long SubmitJob keeps resubmitting through
	// transient failures (connection refused/reset, server restarting)
	// before giving up. Every attempt carries the same generated
	// submission id, so a retry whose predecessor actually landed — the
	// acknowledgement was what got lost — resolves to the existing job
	// instead of a duplicate. Zero means the 15s default; negative
	// disables retrying.
	ResubmitWindow time.Duration

	// AuthToken, when non-empty, rides every request as
	// "Authorization: Bearer <token>" — the credential a gridschedd
	// started with -auth-tokens requires. Set it before the first call.
	AuthToken string

	// binWire is the codec SetCodec selected: binary when set, else JSON.
	binWire atomic.Bool
}

// SetCodec selects the wire format for the hot-path payloads:
//
//   - "json" (default): JSON bodies, JSON replies — debuggable with curl.
//   - "binary": compact binary bodies and an Accept header demanding
//     binary replies. STRICT: a 2xx reply that comes back JSON anyway is
//     an error, never a silent fallback — this is the codec-conformance
//     guarantee, so a misconfigured or downlevel server cannot quietly
//     eat the wire-speed win.
//
// Cold endpoints (job status, tenants, health) stay JSON in either mode.
func (c *Client) SetCodec(mode string) error {
	switch mode {
	case "", "json", "binary":
		c.binWire.Store(mode == "binary")
		return nil
	}
	return fmt.Errorf("client: unknown codec %q (want json or binary)", mode)
}

// New builds a client for the server at base (e.g. "http://host:8080").
// A nil httpClient uses a dedicated default client. The client must not
// set an overall timeout shorter than the long-poll waits in use.
func New(base string, httpClient *http.Client) *Client {
	return NewMulti([]string{base}, httpClient)
}

// NewMulti builds a client over a replicated deployment: every endpoint
// is a base URL of one node (leader or follower, in any order). Requests
// go to one endpoint at a time; a transport-level failure rotates to the
// next, and a 421 reply follows the announced leader. Combined with the
// retry loops (SubmitJobIdempotent, RunWorker's ReconnectWait), a leader
// kill plus follower promotion is survived without operator involvement.
func NewMulti(endpoints []string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	if len(endpoints) == 0 {
		panic("client: NewMulti with no endpoints")
	}
	eps := make([]string, len(endpoints))
	for i, e := range endpoints {
		eps[i] = strings.TrimRight(e, "/")
	}
	return &Client{endpoints: eps, http: httpClient}
}

// Endpoint returns the endpoint requests currently go to.
func (c *Client) Endpoint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints[c.cur]
}

// Sweep-backoff schedule: after every configured endpoint has failed in
// one rotation, delays double from ~sweepInitial up to sweepMax (with
// nextDelay's jitter), and reset the moment any endpoint answers.
const (
	sweepInitial = 100 * time.Millisecond
	sweepMax     = 5 * time.Second
)

// failover rotates away from a failed endpoint. The from guard keeps
// concurrent failures from skipping endpoints: only the first caller that
// saw `from` fail moves the cursor. Completing a full rotation — every
// endpoint failed in turn — arms the sweep backoff, so a fully-down
// deployment is probed at the capped-jitter cadence instead of in a tight
// loop.
func (c *Client) failover(from string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.endpoints) > 1 && c.endpoints[c.cur] == from {
		c.cur = (c.cur + 1) % len(c.endpoints)
		c.sweepFails++
		if c.sweepFails >= len(c.endpoints) {
			c.sweepFails = 0
			c.sweepDelay = nextDelay(c.sweepDelay, 0, sweepInitial, sweepMax)
			c.sweepSleep = c.sweepDelay
		}
	}
}

// noteReachable resets the sweep backoff: some endpoint produced an HTTP
// response, so the deployment is not fully down (even an error reply
// proves the node is alive).
func (c *Client) noteReachable() {
	c.mu.Lock()
	c.sweepFails, c.sweepDelay, c.sweepSleep = 0, 0, 0
	c.mu.Unlock()
}

// takeSweepSleep consumes the pending sweep-backoff sleep, if any.
func (c *Client) takeSweepSleep() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.sweepSleep
	c.sweepSleep = 0
	return d
}

// follow jumps to the leader a 421 reply announced. An unknown URL is
// adopted as a new endpoint — the hint is authoritative; a node would not
// name a leader it is not replicating from.
func (c *Client) follow(from, leader string) {
	leader = strings.TrimRight(leader, "/")
	if leader == "" {
		c.failover(from)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.endpoints {
		if e == leader {
			c.cur = i
			return
		}
	}
	c.endpoints = append(c.endpoints, leader)
	c.cur = len(c.endpoints) - 1
}

// APIError is a non-2xx server reply.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint on 429 (rate-limited or
	// load-shed) replies; zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("gridschedd: %s (http %d)", e.Message, e.StatusCode)
}

// send issues one request and returns the reply once its status line is in,
// the body still unread and the caller's to close. It is the one place
// requests leave the client, so everything every request shares lives
// here: the pending sweep-backoff sleep, the current endpoint, the
// Content-Type of an encoded body, the Accept header advertising binary when
// wantBin, a submit's key repeated in api.SubmissionIDHeader, the bearer
// token, failover — a transport error rotates to the next endpoint, a 421
// follows the announced leader — and the *APIError for a non-2xx reply. The
// failed attempt's error is still returned: retrying is the caller's policy
// (SubmitJobIdempotent, RunWorker); its next attempt uses the new endpoint.
func (c *Client) send(ctx context.Context, method, path string, in any, wantBin bool) (*http.Response, error) {
	if d := c.takeSweepSleep(); d > 0 {
		if err := sleepCtx(ctx, d); err != nil {
			return nil, err
		}
	}
	var body io.Reader
	contentType := ""
	if in != nil {
		var b []byte
		var err error
		if c.binWire.Load() && api.Binary.Supports(in) {
			b, err = api.Binary.Marshal(in)
			contentType = api.ContentTypeBinary
		} else {
			b, err = json.Marshal(in)
			contentType = "application/json"
		}
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	base := c.Endpoint()
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if wantBin {
		req.Header.Set("Accept", api.ContentTypeBinary)
	}
	if submit, ok := in.(*api.SubmitJobRequest); ok && headerSafe(submit.SubmissionID) {
		// The key again, where a router can see it without reading the body.
		req.Header.Set(api.SubmissionIDHeader, submit.SubmissionID)
	}
	if c.AuthToken != "" {
		// Canonical key, assigned directly: skips Set's canonicalization
		// scan on every authenticated request.
		req.Header["Authorization"] = []string{"Bearer " + c.AuthToken}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.failover(base)
		}
		return nil, err
	}
	c.noteReachable()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		err := c.responseError(base, resp)
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// do runs one round-trip. A nil out discards the response body. The wire
// format follows SetCodec: binary-capable payloads go out in the active
// codec, binary is demanded in binary mode when the expected reply has a
// binary encoding, and the reply is decoded by its Content-Type (errors are
// always JSON).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	wantBin := c.binWire.Load() && out != nil && api.Binary.Supports(out)
	resp, err := c.send(ctx, method, path, in, wantBin)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if api.IsBinary(resp.Header.Get("Content-Type")) {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return api.Binary.Unmarshal(data, out)
	}
	if wantBin {
		return refuseJSONReply(method + " " + path)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// refuseJSONReply refuses a JSON reply to a request that demanded binary:
// decoding it would work — which is exactly why it must not pass: a silent
// fallback would let the conformance matrix "pass" without binary ever
// touching the wire.
func refuseJSONReply(what string) error {
	return fmt.Errorf("client: server answered %s in JSON despite binary codec (silent fallback refused)", what)
}

// responseError turns a non-2xx reply into an *APIError, following a 421's
// announced leader. Error bodies are always JSON regardless of codec.
func (c *Client) responseError(base string, resp *http.Response) error {
	var e api.ErrorResponse
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	if resp.StatusCode == http.StatusMisdirectedRequest {
		c.follow(base, resp.Header.Get(api.LeaderHeader))
	}
	ae := &APIError{StatusCode: resp.StatusCode, Message: msg}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

// SubmitJob submits a workload under the given algorithm name and returns
// the job id. The submission is idempotent: a generated submission id rides
// along, and transient transport failures (connection refused mid-restart,
// acknowledgement lost on the wire) are retried with the same id for up to
// ResubmitWindow — the server deduplicates, so the job is created exactly
// once no matter how many attempts it takes. 429 replies are retried too,
// honoring the server's Retry-After hint. Other server-side rejections
// (4xx/5xx besides 503 and 429) are returned immediately.
func (c *Client) SubmitJob(ctx context.Context, name, algorithm string, seed int64, w *workload.Workload) (string, error) {
	return c.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
		Name: name, Algorithm: algorithm, Seed: seed, Workload: w,
		SubmissionID: newSubmissionID(),
	})
}

// SubmitTenantJob is SubmitJob with fair-share parameters: the job is
// accounted to tenant (""= the default tenant) at the given weight (0 =
// weight 1). Over a contended pool the server's arbiter
// converges dispatch rates of runnable jobs to the ratio of their weights.
func (c *Client) SubmitTenantJob(ctx context.Context, tenant string, weight int, name, algorithm string, seed int64, w *workload.Workload) (string, error) {
	return c.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
		Name: name, Algorithm: algorithm, Seed: seed, Workload: w,
		Tenant: tenant, Weight: weight,
		SubmissionID: newSubmissionID(),
	})
}

// SubmitJobIdempotent submits req as-is, retrying transient failures for
// up to ResubmitWindow when req.SubmissionID is set (retrying without a
// submission id could duplicate the job, so it is not attempted).
func (c *Client) SubmitJobIdempotent(ctx context.Context, req api.SubmitJobRequest) (string, error) {
	window := c.ResubmitWindow
	if window == 0 {
		window = 15 * time.Second
	}
	deadline := time.Now().Add(window)
	var backoff time.Duration
	for {
		var resp api.SubmitJobResponse
		err := c.do(ctx, http.MethodPost, "/v1/jobs", &req, &resp)
		if err == nil {
			return resp.JobID, nil
		}
		// A 429 (rate-limited or load-shed) carries the server's own
		// estimate of when capacity returns; waiting any less just burns
		// the deadline on further rejections. nextDelay folds the hint in.
		var hint time.Duration
		var ae *APIError
		if errors.As(err, &ae) {
			hint = ae.RetryAfter
		}
		backoff = submitDelay(backoff, hint)
		if req.SubmissionID == "" || !transientErr(err) || !time.Now().Add(backoff).Before(deadline) {
			return "", err
		}
		if err := sleepCtx(ctx, backoff); err != nil {
			return "", err
		}
	}
}

// transientErr reports whether err is worth retrying: transport-level
// failures, 503 (the server is up but, e.g., still syncing its journal),
// 429 (rate-limited or load-shed — capacity returns), and 421 (this node
// is a follower — do() already moved the cursor to the announced leader,
// so the retry lands there). Other 4xx/5xx are real answers; notably
// 401/403 stay terminal, since retrying a rejected credential can never
// succeed.
func transientErr(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode == http.StatusServiceUnavailable ||
			ae.StatusCode == http.StatusTooManyRequests ||
			ae.StatusCode == http.StatusMisdirectedRequest
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// authErr reports whether err is a credential rejection (401 or 403) —
// terminal for a worker: no retry cadence turns a bad token into a good
// one, so the loop surfaces it instead of spinning.
func authErr(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) &&
		(ae.StatusCode == http.StatusUnauthorized || ae.StatusCode == http.StatusForbidden)
}

// headerSafe reports whether a submission id can travel as a header value
// and arrive as it left: not empty, no control bytes, no space at either
// end. One that cannot goes in the body alone, which a partition accepts
// from a client that addresses it directly.
func headerSafe(id string) bool {
	for i := 0; i < len(id); i++ {
		if id[i] < ' ' || id[i] == 0x7f {
			return false
		}
	}
	return id != "" && strings.TrimSpace(id) == id
}

// newSubmissionID returns a fresh 128-bit idempotency key.
func newSubmissionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("client: submission id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, jobID string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every resident job.
func (c *Client) Jobs(ctx context.Context) ([]api.JobStatus, error) {
	var out []api.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Tenants lists every tenant the server's fair-share arbiter knows, with
// share targets, achieved shares, in-flight counts, and quotas.
func (c *Client) Tenants(ctx context.Context) ([]api.TenantStatus, error) {
	var out []api.TenantStatus
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &out)
	return out, err
}

// Register enrolls a worker. site pins it to a site; nil lets the server
// pick.
func (c *Client) Register(ctx context.Context, site *int) (*api.RegisterResponse, error) {
	return c.RegisterWorker(ctx, site, nil)
}

// RegisterWorker enrolls a worker advertising capability tags; jobs
// submitted with Requires only dispatch to workers whose tags cover them.
func (c *Client) RegisterWorker(ctx context.Context, site *int, tags []string) (*api.RegisterResponse, error) {
	var resp api.RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/workers", &api.RegisterRequest{Site: site, Tags: tags}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Deregister removes a worker; its outstanding assignment, if any, is
// requeued.
func (c *Client) Deregister(ctx context.Context, workerID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/workers/"+workerID, nil, nil)
}

// Pull long-polls for an assignment, waiting up to wait server-side.
func (c *Client) Pull(ctx context.Context, workerID string, wait time.Duration) (*api.PullResponse, error) {
	var resp api.PullResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/pull",
		&api.PullRequest{WaitMillis: wait.Milliseconds()}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Report ends an assignment with api.OutcomeSuccess or api.OutcomeFailure.
func (c *Client) Report(ctx context.Context, assignmentID, workerID, outcome string) (*api.ReportResponse, error) {
	var resp api.ReportResponse
	err := c.do(ctx, http.MethodPost, "/v1/assignments/"+assignmentID+"/report",
		&api.ReportRequest{WorkerID: workerID, Outcome: outcome}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}
