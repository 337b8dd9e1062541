package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gridsched/internal/service/api"
)

// wireCodec is testkit.WireCodec for this package's own tests, which
// testkit cannot serve because it imports this package.
func wireCodec(t testing.TB, c *Client) *Client {
	t.Helper()
	if err := c.SetCodec(os.Getenv("GRIDSCHED_TEST_CODEC")); err != nil {
		t.Fatalf("GRIDSCHED_TEST_CODEC: %v", err)
	}
	return c
}

func TestNextDelayEnvelope(t *testing.T) {
	within := func(got, lo, hi time.Duration) {
		t.Helper()
		if got < lo || got >= hi {
			t.Fatalf("delay %s outside [%s, %s)", got, lo, hi)
		}
	}
	for i := 0; i < 50; i++ {
		// submitDelay: exponential from 50ms, capped at 2s.
		within(submitDelay(0, 0), 25*time.Millisecond, 50*time.Millisecond)
		within(submitDelay(50*time.Millisecond, 0), 50*time.Millisecond, 100*time.Millisecond)
		within(submitDelay(time.Hour, 0), time.Second, 2*time.Second)
		// A Retry-After hint longer than the doubled delay wins, still capped.
		within(submitDelay(0, time.Second), 500*time.Millisecond, time.Second)
		within(submitDelay(0, time.Hour), time.Second, 2*time.Second)
	}
}

func TestSleepCtx(t *testing.T) {
	if err := sleepCtx(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("uncancelled sleep: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := sleepCtx(ctx, time.Hour); err == nil {
		t.Fatal("cancelled sleep returned nil")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled sleep actually slept")
	}
}

// health is GET /healthz through the client's one request path.
func (c *Client) health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, &api.Health{})
}

// leaderStub is a minimal leader answering /healthz and counting hits.
func leaderStub(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestClientFailsOverOnTransportError: with the first endpoint dead, one
// failed attempt rotates to the live endpoint and stays there.
func TestClientFailsOverOnTransportError(t *testing.T) {
	var hits atomic.Int64
	live := leaderStub(t, &hits)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // reserve then release: a connect-refused endpoint

	c := wireCodec(t, NewMulti([]string{dead.URL, live.URL}, nil))
	if err := c.health(context.Background()); err == nil {
		t.Fatal("first attempt against the dead endpoint succeeded")
	}
	if got := c.Endpoint(); got != live.URL {
		t.Fatalf("after transport error: endpoint %q, want %q", got, live.URL)
	}
	if err := c.health(context.Background()); err != nil {
		t.Fatalf("after failover: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("live endpoint served %d requests, want 1", hits.Load())
	}
}

// TestClientFollowsLeaderHint: a follower's 421 plus X-Gridsched-Leader
// moves the client to the leader — even when the leader was never in the
// configured endpoint list (it is adopted).
func TestClientFollowsLeaderHint(t *testing.T) {
	var hits atomic.Int64
	leader := leaderStub(t, &hits)
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.LeaderHeader, leader.URL)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "follower: go to the leader"})
	}))
	t.Cleanup(follower.Close)

	c := wireCodec(t, NewMulti([]string{follower.URL}, nil))
	err := c.health(context.Background())
	if err == nil {
		t.Fatal("421 response did not surface as an error")
	}
	var apiErr *APIError
	if !asAPIError(err, &apiErr) || apiErr.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("421 error: %v", err)
	}
	if got := c.Endpoint(); got != leader.URL {
		t.Fatalf("after 421 hint: endpoint %q, want %q", got, leader.URL)
	}
	if err := c.health(context.Background()); err != nil {
		t.Fatalf("retry at hinted leader: %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("leader served %d requests, want 1", hits.Load())
	}
}

// TestMisdirectedIsTransient: 421 must be retryable for the idempotent
// submit path, so a submit racing a failover converges on the new leader
// instead of giving up.
func TestMisdirectedIsTransient(t *testing.T) {
	if !transientErr(&APIError{StatusCode: http.StatusMisdirectedRequest}) {
		t.Fatal("421 not transient")
	}
	if !transientErr(&APIError{StatusCode: http.StatusServiceUnavailable}) {
		t.Fatal("503 not transient")
	}
	if transientErr(&APIError{StatusCode: http.StatusBadRequest}) {
		t.Fatal("400 transient")
	}
}

func asAPIError(err error, out **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*out = ae
	}
	return ok
}
