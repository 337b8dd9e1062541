package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/partition"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
	"gridsched/internal/workload"
)

func coaddWorkload(t *testing.T, tasks int) *workload.Workload {
	t.Helper()
	cfg := workload.CoaddSmallConfig(workload.DefaultCoaddSeed)
	cfg.Tasks = tasks
	w, err := workload.GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEndToEndWorkloadOverHTTP is the acceptance scenario: a Coadd workload
// submitted over HTTP completes via 8 concurrent workers, a killed worker's
// task (it pulled once and went silent) is requeued after lease expiry, and
// no completion is duplicated.
func TestEndToEndWorkloadOverHTTP(t *testing.T) {
	svc, err := gridsched.NewService(gridsched.ServiceConfig{
		Topology: gridsched.ServiceTopology{
			Sites:          4,
			WorkersPerSite: 3, // 8 live workers + the victim + slack
			CapacityFiles:  2000,
		},
		LeaseTTL:      300 * time.Millisecond,
		SweepInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const tasks = 48
	w := coaddWorkload(t, tasks)
	jobID, err := cl.SubmitJob(ctx, "e2e", "rest", 1, w)
	if err != nil {
		t.Fatal(err)
	}

	// The victim worker takes one task and is killed: it never heartbeats
	// and never reports, so its lease must expire and the task must be
	// re-dispatched to the live fleet.
	victim, err := cl.Register(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	victimPull, err := cl.Pull(ctx, victim.WorkerID, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if victimPull.Status != api.StatusAssigned {
		t.Fatalf("victim pull: %q", victimPull.Status)
	}

	// 8 concurrent workers drive the rest of the workload to completion.
	var executions atomic.Int64
	perTask := make([]atomic.Int32, tasks)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := cl.RunWorker(ctx, client.WorkerConfig{
				Execute: func(execCtx context.Context, ref core.WorkerRef, a *api.Assignment) error {
					executions.Add(1)
					perTask[a.Task.ID].Add(1)
					select {
					case <-execCtx.Done():
					case <-time.After(time.Millisecond):
					}
					return nil
				},
				OnIdle: func(idleCtx context.Context, openJobs int) (bool, error) {
					return openJobs == 0, nil
				},
			})
			if err != nil && ctx.Err() == nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("workload did not complete before the test deadline")
	}

	st, err := cl.Job(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted {
		t.Fatalf("job state %q: %+v", st.State, st)
	}
	if st.Completed != tasks {
		t.Fatalf("completed %d of %d (duplicate or lost completions)", st.Completed, tasks)
	}
	if st.Expired < 1 {
		t.Fatalf("expired leases = %d, want >= 1 (the killed worker's)", st.Expired)
	}
	if got := int(executions.Load()); got < tasks {
		t.Fatalf("executions %d < tasks %d", got, tasks)
	}
	// The victim's task ran again in the fleet; its late success report
	// must be rejected as stale, leaving the completion count untouched.
	rep, err := cl.Report(context.Background(), victimPull.Assignment.ID, victim.WorkerID, api.OutcomeSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || !rep.Stale {
		t.Fatalf("zombie report not rejected: %+v", rep)
	}
	st, _ = cl.Job(context.Background(), jobID)
	if st.Completed != tasks {
		t.Fatalf("completions moved after stale report: %d", st.Completed)
	}
	// Worker-centric scheduling never replicates: absent lease expiry a
	// task runs once, so only the victim's task may have run on two
	// workers (once on the victim — not counted in perTask, which only
	// tracks fleet executions — and once or more after requeue).
	for id := range perTask {
		if n := perTask[id].Load(); n > 2 {
			t.Errorf("task %d executed %d times in the fleet", id, n)
		}
	}
}

func TestHTTPSubmitRejectsUnknownAlgorithm(t *testing.T) {
	svc, err := gridsched.NewService(gridsched.ServiceConfig{
		Topology: gridsched.ServiceTopology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))
	_, err = cl.SubmitJob(context.Background(), "bad", "bogus", 0, syntheticWorkload(1, 1))
	var ae *client.APIError
	if err == nil {
		t.Fatal("accepted bogus algorithm")
	}
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	svc := newService(t, service.Config{Topology: service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 100}})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := testkit.WireCodec(t, client.New(ts.URL, nil))

	h, err := testkit.Call[api.Health](context.Background(), cl, http.MethodGet, "/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health: %+v", h)
	}

	if _, err := svc.SubmitJob(api.SubmitJobRequest{Name: "m", Algorithm: "workqueue", Workload: syntheticWorkload(2, 1)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"gridsched_jobs_submitted_total 1",
		"gridsched_open_jobs 1",
		"gridsched_job_remaining",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestSubmitKeyChecks: the two refusals that keep a keyed submit
// exactly-once behind a router that places it by header without reading its
// body. The header must be the body's key; and a key must hash to the
// partition it arrived at, since a partition that took in one that
// round-robin brought it would hold a job the keyed retry never finds.
func TestSubmitKeyChecks(t *testing.T) {
	serve := func(index, count int) string {
		svc := newService(t, service.Config{
			NewScheduler:   gridsched.SchedulerFactory(),
			PartitionIndex: index, PartitionCount: count,
		})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	keyFor := func(owner int) string {
		for i := 0; ; i++ {
			if key := fmt.Sprintf("sub-%d", i); partition.SubmitOwner(key, 2) == owner {
				return key
			}
		}
	}
	standalone, first := serve(0, 1), serve(0, 2)
	for _, codec := range []api.Codec{api.JSON, api.Binary} {
		// post submits a one-task job under key, with header beside it.
		post := func(url, header, key string) (int, string) {
			t.Helper()
			body, err := codec.Marshal(&api.SubmitJobRequest{
				Name: "keyed", Algorithm: "workqueue", Workload: syntheticWorkload(1, 1), SubmissionID: key,
			})
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", codec.ContentType())
			if header != "" {
				req.Header.Set(api.SubmissionIDHeader, header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e api.ErrorResponse // no Accept header: every answer is JSON
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, e.Error
		}
		for _, tc := range []struct {
			name, url, header, key string
			code                   int
			says                   string
		}{
			{"standalone takes any key", standalone, "", keyFor(1), http.StatusCreated, ""},
			{"header repeats the key", standalone, keyFor(0), keyFor(0), http.StatusCreated, ""},
			{"header is another key", standalone, keyFor(1), keyFor(0), http.StatusBadRequest, api.SubmissionIDHeader},
			{"header beside a keyless body", standalone, keyFor(1), "", http.StatusBadRequest, api.SubmissionIDHeader},
			{"keyless lands anywhere", first, "", "", http.StatusCreated, ""},
			{"owner takes its key", first, keyFor(0), keyFor(0), http.StatusCreated, ""},
			{"owner takes its key without a header", first, "", keyFor(0), http.StatusCreated, ""},
			{"non-owner names the owner", first, "", keyFor(1), http.StatusConflict, "belongs to partition 1"},
			{"non-owner, header or not", first, keyFor(1), keyFor(1), http.StatusConflict, "belongs to partition 1"},
		} {
			code, msg := post(tc.url, tc.header, tc.key)
			if code != tc.code || !strings.Contains(msg, tc.says) {
				t.Errorf("%s, %s: HTTP %d %q, want %d mentioning %q", codec.ContentType(), tc.name, code, msg, tc.code, tc.says)
			}
		}
	}
}
