package service_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// startHTTP serves s over a real listener and returns a client pointed at
// it. The client honors GRIDSCHED_TEST_CODEC, so these tests run under the
// CI codec-conformance matrix unchanged.
func startHTTP(t *testing.T, s *service.Service) *client.Client {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return testkit.WireCodec(t, client.New(ts.URL, nil))
}

// TestStreamWorkerDrivesJobToCompletion is the tentpole's end-to-end
// check over a real TCP connection: streaming workers (one lease channel
// each, batched reports, no heartbeats) drain a job under every algorithm,
// and every completion is counted exactly once. No lease expires here, so a
// strategy that never replicates dispatches and executes each task once,
// however many workers race for it.
func TestStreamWorkerDrivesJobToCompletion(t *testing.T) {
	const tasks, workers = 60, 4
	for _, algorithm := range gridsched.AlgorithmNames() {
		t.Run(algorithm, func(t *testing.T) {
			// A worker that holds nothing notices the job is done at its next
			// keepalive, one third of a lease.
			s := newService(t, service.Config{LeaseTTL: 1500 * time.Millisecond})
			cl := startHTTP(t, s)
			jobID, err := s.SubmitJob(api.SubmitJobRequest{
				Name: "drain", Algorithm: algorithm, Workload: syntheticWorkload(tasks, 3), Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			perTask := make([]atomic.Int32, tasks)
			errs := make(chan error, workers)
			for range workers {
				go func() {
					errs <- cl.RunWorker(ctx, client.WorkerConfig{
						StreamBatch: 8,
						Execute: func(_ context.Context, _ core.WorkerRef, a *api.Assignment) error {
							perTask[a.Task.ID].Add(1)
							return nil
						},
						OnIdle: func(_ context.Context, openJobs int) (bool, error) {
							return openJobs == 0, nil
						},
					})
				}()
			}
			for range workers {
				if err := <-errs; err != nil {
					t.Fatalf("streaming worker: %v", err)
				}
			}
			st, err := s.JobStatus(jobID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != api.JobCompleted || st.Completed != tasks || st.Remaining != 0 || st.Expired != 0 {
				t.Fatalf("job after streaming drain: %+v", st)
			}
			if got := s.Counters().Completions.Load(); got != tasks {
				t.Fatalf("completions counter = %d, want %d (exactly once)", got, tasks)
			}
			if got := s.Counters().ActiveLeases.Load(); got != 0 {
				t.Fatalf("active leases after drain = %d", got)
			}
			if strings.Contains(algorithm, "storage affinity") {
				return // it replicates by design
			}
			if st.Dispatched != tasks {
				t.Errorf("dispatched %d times for %d tasks", st.Dispatched, tasks)
			}
			for id := range perTask {
				if n := perTask[id].Load(); n != 1 {
					t.Errorf("task %d executed %d times, want exactly 1", id, n)
				}
			}
		})
	}
}

// TestStreamMutualExclusion pins the one-protocol-per-worker rule: a
// second stream, or a classic pull, while a stream is open is a 409 — the
// two protocols disagree about how many leases a worker may hold.
func TestStreamMutualExclusion(t *testing.T) {
	s := newService(t, service.Config{})
	cl := startHTTP(t, s)
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}

	ls, err := cl.StreamLeases(ctx, reg.WorkerID, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ae *client.APIError
	if _, err := cl.StreamLeases(ctx, reg.WorkerID, 4); !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("second stream: %v, want 409", err)
	}
	if _, err := cl.Pull(ctx, reg.WorkerID, 0); !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("pull during stream: %v, want 409", err)
	}
	ls.Close()

	// The server releases the stream claim when it notices the disconnect;
	// poll until a classic pull is admitted again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cl.Pull(ctx, reg.WorkerID, 0)
		if err == nil {
			break
		}
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("pull after stream close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReportBatchRetryIsStale is the exactly-once contract for batched
// reports: a client that retries a whole batch after a lost reply (the
// stream-drop case) gets every already-landed item back Stale, and the
// completion counters move only once.
func TestReportBatchRetryIsStale(t *testing.T) {
	const tasks = 4
	s := newService(t, service.Config{})
	cl := startHTTP(t, s)
	submitWorkqueue(t, s, syntheticWorkload(tasks, 2))
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := cl.StreamLeases(ctx, reg.WorkerID, tasks)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	var items []api.ReportItem
	for len(items) < tasks {
		lb, err := ls.Next()
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		for _, a := range lb.Assignments {
			items = append(items, api.ReportItem{AssignmentID: a.ID, Outcome: api.OutcomeSuccess})
		}
	}

	first, err := cl.ReportBatch(ctx, reg.WorkerID, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first {
		if !r.Accepted || r.Stale {
			t.Fatalf("first batch item %d: %+v", i, r)
		}
	}
	retry, err := cl.ReportBatch(ctx, reg.WorkerID, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range retry {
		if r.Accepted || !r.Stale {
			t.Fatalf("retried batch item %d: %+v, want stale", i, r)
		}
	}
	if got := s.Counters().Completions.Load(); got != tasks {
		t.Fatalf("completions = %d after retried batch, want %d", got, tasks)
	}
	if got := s.Counters().StaleReports.Load(); got != tasks {
		t.Fatalf("stale reports = %d, want %d", got, tasks)
	}
}

// TestReportBatchValidatesOutcomes: a malformed item rejects the whole
// batch before anything is journaled. Under JSON the server answers 400
// naming the index; under the binary codec the strict encoder refuses the
// out-of-vocabulary outcome client-side and the request never leaves.
func TestReportBatchValidatesOutcomes(t *testing.T) {
	s := newService(t, service.Config{})
	cl := startHTTP(t, s)
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.ReportBatch(ctx, reg.WorkerID, []api.ReportItem{
		{AssignmentID: "a", Outcome: api.OutcomeSuccess},
		{AssignmentID: "b", Outcome: "shrug"},
	})
	var ae *client.APIError
	switch {
	case errors.As(err, &ae):
		if ae.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad outcome in batch: %v, want 400", err)
		}
	case err == nil || !strings.Contains(err.Error(), "unknown outcome"):
		t.Fatalf("bad outcome in batch: %v, want a 400 or an encode refusal", err)
	}
}

// TestReportBatchDuplicateAssignment: the same assignment id twice in one
// batch applies once; the duplicate is stale, exactly as a second single
// report would be. The nastiest instance is a duplicated final task of a
// job — the first apply completes the job and releases its scheduler, so
// a double apply would hit a nil scheduler while holding the service lock
// and wedge the service.
func TestReportBatchDuplicateAssignment(t *testing.T) {
	s := newService(t, service.Config{})
	cl := startHTTP(t, s)
	submitWorkqueue(t, s, syntheticWorkload(1, 2))
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := cl.Pull(ctx, reg.WorkerID, 5*time.Second)
	if err != nil || pr.Assignment == nil {
		t.Fatalf("pull: %v, %+v", err, pr)
	}
	dup := api.ReportItem{AssignmentID: pr.Assignment.ID, Outcome: api.OutcomeSuccess}
	results, err := cl.ReportBatch(ctx, reg.WorkerID, []api.ReportItem{dup, dup})
	if err != nil {
		t.Fatalf("batch with duplicate: %v", err)
	}
	if !results[0].Accepted || results[0].Stale {
		t.Fatalf("first occurrence: %+v, want accepted", results[0])
	}
	if results[1].Accepted || !results[1].Stale {
		t.Fatalf("duplicate occurrence: %+v, want stale", results[1])
	}
	if got := s.Counters().Completions.Load(); got != 1 {
		t.Fatalf("completions = %d, want 1 (exactly once)", got)
	}
	if got := s.Counters().ActiveLeases.Load(); got != 0 {
		t.Fatalf("active leases = %d, want 0 (no double decrement)", got)
	}
	// The service must still be usable: a fresh job on it
	// dispatches and reports normally.
	submitWorkqueue(t, s, syntheticWorkload(1, 2))
	pr, err = cl.Pull(ctx, reg.WorkerID, 5*time.Second)
	if err != nil || pr.Assignment == nil {
		t.Fatalf("pull after duplicate batch: %v, %+v", err, pr)
	}
	if _, err := cl.Report(ctx, pr.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatalf("report after duplicate batch: %v", err)
	}
}

// TestReportBatchCapEnforced: the documented 256-item cap on the batch
// report endpoint is a 400, not an invitation to hold the service lock
// across an arbitrarily large journal append.
func TestReportBatchCapEnforced(t *testing.T) {
	s := newService(t, service.Config{})
	cl := startHTTP(t, s)
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]api.ReportItem, 257)
	for i := range items {
		items[i] = api.ReportItem{AssignmentID: fmt.Sprintf("a%d", i), Outcome: api.OutcomeSuccess}
	}
	var ae *client.APIError
	if _, err := cl.ReportBatch(ctx, reg.WorkerID, items); !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: %v, want 400", err)
	}
}
