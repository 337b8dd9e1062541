package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridsched/internal/metrics"
	"gridsched/internal/middleware"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// TestRunWorkerAuthFailureIsTerminal is the regression test for the
// retry-forever bug class: a worker pointed at an authenticated server
// with a bad (or revoked) credential must surface the 401 as a terminal
// error immediately — even with ReconnectWait set, which retries every
// other failure mode.
func TestRunWorkerAuthFailureIsTerminal(t *testing.T) {
	var registers atomic.Int64
	chain := middleware.Ingress(middleware.Config{
		Log:    io.Discard,
		Tokens: middleware.NewTokenStore(map[string]middleware.Principal{"good": {Tenant: "t"}}),
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		registers.Add(1) // only authenticated requests reach here
	}))
	ts := httptest.NewServer(chain)
	defer ts.Close()

	cl := testkit.WireCodec(t, client.New(ts.URL, nil))
	cl.AuthToken = "revoked"
	done := make(chan error, 1)
	go func() {
		done <- cl.RunWorker(context.Background(), client.WorkerConfig{
			ReconnectWait: 10 * time.Millisecond,
		})
	}()
	select {
	case err := <-done:
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnauthorized {
			t.Fatalf("RunWorker error = %v, want wrapped 401", err)
		}
		if !strings.Contains(err.Error(), "credentials rejected") {
			t.Fatalf("error %q does not name the credential rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWorker still retrying a rejected credential after 5s")
	}
	if n := registers.Load(); n != 0 {
		t.Fatalf("unauthenticated worker reached the service %d times", n)
	}
}

// TestSubmitJobIdempotentRetriesAcrossFailover: the submit hits a
// follower (421 + hint), retries, and lands exactly once on the leader
// with the same submission id — in the body and, for a router to place it
// by, in the header.
func TestSubmitJobIdempotentRetriesAcrossFailover(t *testing.T) {
	s := &scriptedSched{t: t}
	var submissions atomic.Int64
	var lastSubmission, lastHeader atomic.Value
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.SubmitJobRequest
		s.read(r, &req)
		submissions.Add(1)
		lastSubmission.Store(req.SubmissionID)
		lastHeader.Store(r.Header.Get(api.SubmissionIDHeader))
		s.reply(w, r, http.StatusCreated, &api.SubmitJobResponse{JobID: "job-1"})
	}))
	t.Cleanup(leader.Close)
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.LeaderHeader, leader.URL)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		_ = json.NewEncoder(w).Encode(api.ErrorResponse{Error: "not the leader"})
	}))
	t.Cleanup(follower.Close)

	c := testkit.WireCodec(t, client.NewMulti([]string{follower.URL}, nil))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := c.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
		Name: "j", Algorithm: "workqueue", SubmissionID: "sub-1",
	})
	if err != nil {
		t.Fatalf("submit across failover: %v", err)
	}
	if id != "job-1" {
		t.Fatalf("job id %q", id)
	}
	if submissions.Load() != 1 {
		t.Fatalf("leader saw %d submissions, want 1", submissions.Load())
	}
	if sid, _ := lastSubmission.Load().(string); sid != "sub-1" {
		t.Fatalf("the retried request's body carries submission id %q, want sub-1", sid)
	}
	if sid, _ := lastHeader.Load().(string); sid != "sub-1" {
		t.Fatalf("the retried request's %s is %q, want sub-1", api.SubmissionIDHeader, sid)
	}
}

// TestSubmitRetriesShed: SubmitJobIdempotent treats 429 as transient and
// lands the job once capacity returns.
func TestSubmitRetriesShed(t *testing.T) {
	s := &scriptedSched{t: t}
	var submits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if submits.Add(1) == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"overloaded; shed, retry later"}`))
			return
		}
		s.reply(w, r, http.StatusCreated, &api.SubmitJobResponse{JobID: "j1"})
	}))
	defer ts.Close()

	id, err := testkit.WireCodec(t, client.New(ts.URL, nil)).SubmitJobIdempotent(context.Background(), api.SubmitJobRequest{
		Name: "shed-retry", Algorithm: "workqueue", Workload: smallWorkload(2),
		SubmissionID: "shed-key-1",
	})
	if err != nil || id != "j1" {
		t.Fatalf("submit through shed: id=%q err=%v", id, err)
	}
	if got := submits.Load(); got != 2 {
		t.Fatalf("submit attempts = %d, want 2", got)
	}
}

// TestAPIErrorRetryAfter: do() surfaces the server's Retry-After hint on
// the typed error.
func TestAPIErrorRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"rate limit exceeded; retry later"}`))
	}))
	defer ts.Close()

	_, err := testkit.WireCodec(t, client.New(ts.URL, nil)).Job(context.Background(), "j1")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want APIError 429", err)
	}
	if ae.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %s, want 7s", ae.RetryAfter)
	}
}

// TestClientSendsBearer: AuthToken rides every request and satisfies the
// real auth middleware.
func TestClientSendsBearer(t *testing.T) {
	c := metrics.NewIngressCounters()
	chain := middleware.Ingress(middleware.Config{
		Counters: c,
		Log:      io.Discard,
		Tokens:   middleware.NewTokenStore(map[string]middleware.Principal{"tok": {Tenant: "t"}}),
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[]`))
	}))
	ts := httptest.NewServer(chain)
	defer ts.Close()

	cl := testkit.WireCodec(t, client.New(ts.URL, nil))
	if _, err := cl.Jobs(context.Background()); err == nil {
		t.Fatal("tokenless request passed auth")
	}
	cl.AuthToken = "tok"
	if _, err := cl.Jobs(context.Background()); err != nil {
		t.Fatalf("authenticated request failed: %v", err)
	}
	if c.AuthFailures.Load() != 1 {
		t.Fatalf("AuthFailures = %d, want 1", c.AuthFailures.Load())
	}
}
