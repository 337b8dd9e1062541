package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
	"gridsched/internal/workload"
)

func smallWorkload(tasks int) *workload.Workload {
	w := &workload.Workload{Name: "client-test", NumFiles: tasks}
	for i := 0; i < tasks; i++ {
		w.Tasks = append(w.Tasks, workload.Task{
			ID: workload.TaskID(i), Files: []workload.FileID{workload.FileID(i)},
		})
	}
	return w
}

func durableService(t *testing.T, dir string) *service.Service {
	t.Helper()
	s, err := service.New(service.Config{
		Topology:     service.Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 64},
		NewScheduler: gridsched.SchedulerFactory(),
		DataDir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSubmitIdempotentAcrossServerRestart: a duplicate submissionId must
// resolve to the original job even when the duplicate arrives at a
// different process that recovered the first submission from its journal —
// the lost-ack-then-restart retry scenario.
func TestSubmitIdempotentAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := api.SubmitJobRequest{
		Name: "idem", Algorithm: "workqueue", Workload: smallWorkload(8),
		SubmissionID: "retry-key-1",
	}

	s1 := durableService(t, dir)
	ts1 := httptest.NewServer(s1.Handler())
	id1, err := testkit.WireCodec(t, client.New(ts1.URL, nil)).SubmitJobIdempotent(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Same key on the same process first (the in-memory dedupe path).
	again, err := testkit.WireCodec(t, client.New(ts1.URL, nil)).SubmitJobIdempotent(ctx, req)
	if err != nil || again != id1 {
		t.Fatalf("same-process resubmit: %q, %v; want %q", again, err, id1)
	}
	ts1.Close()
	s1.Close()

	s2 := durableService(t, dir)
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	id2, err := testkit.WireCodec(t, client.New(ts2.URL, nil)).SubmitJobIdempotent(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 {
		t.Fatalf("restart resubmit created %q, original was %q", id2, id1)
	}
	jobs, err := testkit.WireCodec(t, client.New(ts2.URL, nil)).Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%d resident jobs after duplicate submissions, want 1", len(jobs))
	}
}

// TestSubmitRetryExhaustionSurfacesLastTransportError: when every attempt
// inside ResubmitWindow fails at the transport layer, SubmitJob returns
// that transport error (not a synthetic timeout, not an APIError).
func TestSubmitRetryExhaustionSurfacesLastTransportError(t *testing.T) {
	// A listener that is immediately closed: every dial is refused.
	ts := httptest.NewServer(http.NotFoundHandler())
	dead := ts.URL
	ts.Close()

	cl := testkit.WireCodec(t, client.New(dead, nil))
	cl.ResubmitWindow = 300 * time.Millisecond
	start := time.Now()
	_, err := cl.SubmitJob(context.Background(), "doomed", "workqueue", 0, smallWorkload(2))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("submit against a dead server succeeded")
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		t.Fatalf("got protocol error %v, want the underlying transport error", ae)
	}
	// At least one backoff round ran before giving up, and the window was
	// honored rather than retrying forever.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("gave up after %s, before the first retry", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("retried for %s, far past the 300ms window", elapsed)
	}
}

// TestSubmitRetriesThrough503: 503 is the "server up but not ready"
// answer (journal syncing, restarting); a keyed submission must ride it
// out and land exactly once.
func TestSubmitRetriesThrough503(t *testing.T) {
	s, err := service.New(service.Config{
		Topology:     service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 64},
		NewScheduler: gridsched.SchedulerFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var attempts atomic.Int64
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			http.Error(w, `{"error":"still syncing"}`, http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cl := testkit.WireCodec(t, client.New(ts.URL, nil))
	id, err := cl.SubmitJob(context.Background(), "late", "workqueue", 0, smallWorkload(4))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty job id")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (two 503s then success)", got)
	}
	// A rejection that is a real answer is NOT retried.
	attempts.Store(100)
	if _, err := cl.SubmitJob(context.Background(), "bad", "no-such-algorithm", 0, smallWorkload(4)); err == nil {
		t.Fatal("bad algorithm accepted")
	} else {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Fatalf("got %v, want an immediate 400", err)
		}
	}
}
