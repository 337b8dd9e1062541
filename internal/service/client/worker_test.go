package client_test

import (
	"context"
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

// TestWorkerDrainsInFlightTaskOnShutdown: with DrainGrace set, cancelling
// the worker's context mid-execution must NOT abort the task — the worker
// finishes it, reports success, and deregisters, leaving no lease behind
// for the expiry sweeper (the gridworker SIGTERM path).
func TestWorkerDrainsInFlightTaskOnShutdown(t *testing.T) {
	s, err := service.New(service.Config{
		Topology:     service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 64},
		NewScheduler: gridsched.SchedulerFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))

	jobID, err := cl.SubmitJob(context.Background(), "drain", "workqueue", 0, smallWorkload(1))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	aborted := make(chan error, 1)
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- cl.RunWorker(ctx, client.WorkerConfig{
			DrainGrace: 10 * time.Second,
			Execute: func(execCtx context.Context, ref core.WorkerRef, a *api.Assignment) error {
				close(started)
				select {
				case <-release:
					aborted <- nil
				case <-execCtx.Done():
					aborted <- execCtx.Err()
				}
				return nil
			},
		})
	}()

	<-started
	cancel() // SIGTERM-equivalent: shutdown lands mid-execution
	time.Sleep(50 * time.Millisecond)
	close(release) // the task finishes after the signal, within the grace
	if err := <-workerDone; err != nil {
		t.Fatalf("worker loop: %v", err)
	}
	if err := <-aborted; err != nil {
		t.Fatalf("execution aborted despite DrainGrace: %v", err)
	}

	st, err := cl.Job(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted || st.Completed != 1 || st.Expired != 0 || st.Failed != 0 {
		t.Fatalf("drained shutdown left %+v, want 1 completion, 0 expiries, 0 failures", st)
	}
	// Deregistered on the way out: the slot is free for a successor.
	if h := s.Health(); h.Workers != 0 {
		t.Fatalf("%d workers still registered after drain", h.Workers)
	}
}

// TestWorkerAbortsWithoutDrainGrace pins the historical contract: with no
// grace, cancellation interrupts the execution and the outcome reports as
// a failure (requeue) rather than a false success.
func TestWorkerAbortsWithoutDrainGrace(t *testing.T) {
	s, err := service.New(service.Config{
		Topology:     service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 64},
		NewScheduler: gridsched.SchedulerFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))

	jobID, err := cl.SubmitJob(context.Background(), "abort", "workqueue", 0, smallWorkload(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- cl.RunWorker(ctx, client.WorkerConfig{
			Execute: func(execCtx context.Context, ref core.WorkerRef, a *api.Assignment) error {
				close(started)
				<-execCtx.Done()
				return nil
			},
		})
	}()
	<-started
	cancel()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker loop: %v", err)
	}
	st, err := cl.Job(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 0 || st.Failed != 1 {
		t.Fatalf("abort-without-grace reported %+v, want the failure/requeue path", st)
	}
}

// TestWorkerKeepsFinishedWorkWhenReportFails: a worker whose report is
// refused (429) or cut off mid-request keeps the outcome until a report
// lands, instead of throwing it away and running the task a second time:
// every task runs once, on one registration, and no report is stale.
func TestWorkerKeepsFinishedWorkWhenReportFails(t *testing.T) {
	for name, fail := range map[string]func(http.ResponseWriter){
		"429": func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"overloaded; shed, retry later"}`))
		},
		"severed": func(w http.ResponseWriter) {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			const tasks = 3
			s, err := service.New(service.Config{
				Topology:     service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 64},
				NewScheduler: gridsched.SchedulerFactory(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var registrations, reports atomic.Int64
			h := s.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/v1/workers":
					registrations.Add(1)
				case strings.HasSuffix(r.URL.Path, "/reports") && reports.Add(1) == 1:
					fail(w)
					return
				}
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()
			cl := testkit.WireCodec(t, client.New(ts.URL, nil))
			jobID, err := cl.SubmitJob(context.Background(), "keep", "workqueue", 0, smallWorkload(tasks))
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			executed := 0
			err = cl.RunWorker(ctx, client.WorkerConfig{
				ReconnectWait: 10 * time.Millisecond,
				Execute: func(context.Context, core.WorkerRef, *api.Assignment) error {
					executed++
					return nil
				},
				OnIdle: func(_ context.Context, openJobs int) (bool, error) {
					return openJobs == 0, nil
				},
			})
			if err != nil {
				t.Fatalf("worker loop: %v", err)
			}
			st, err := cl.Job(context.Background(), jobID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != api.JobCompleted || st.Completed != tasks || st.Dispatched != tasks || st.Expired != 0 {
				t.Fatalf("job after a failed report: %+v, want %d tasks dispatched and completed once each", st, tasks)
			}
			if executed != tasks || registrations.Load() != 1 {
				t.Fatalf("executed %d tasks on %d registrations, want %d on 1", executed, registrations.Load(), tasks)
			}
			if got := s.Counters().StaleReports.Load(); got != 0 {
				t.Fatalf("%d stale reports, want 0: the retried report must be the first to land", got)
			}
		})
	}
}
