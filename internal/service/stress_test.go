package service_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/faultinject"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
)

// TestConcurrentMixedTraffic drives every mutation class at once —
// submits, pulls, success/failure reports, worker churn, job deletion,
// quota overrides, and status reads — against a journaled service, then
// proves three invariants survived: no task was acknowledged complete
// twice, every job drained exactly its task count, and a recovery of the
// data dir reproduces the same completed set. Run under -race in CI, this
// is the lock-ordering and lost-wakeup detector for the service lock and
// its leaf locks.
func TestConcurrentMixedTraffic(t *testing.T) {
	const (
		submitters   = 4
		jobsEach     = 6
		tasksPerJob  = 8
		workers      = 8
		quotaFlips   = 40
		statusProbes = 60
	)
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 128
	cfg.LeaseTTL = 5 * time.Second
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var (
		ackMu sync.Mutex
		acks  = make(map[string]int) // "job/task" -> completions acknowledged
	)
	jobIDs := make(chan string, submitters*jobsEach)
	var submitted atomic.Int64

	var wg sync.WaitGroup
	// Submitters: tenant-spread jobs.
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for k := 0; k < jobsEach; k++ {
				tenant := fmt.Sprintf("t%d", (n+k)%3)
				id, err := s.SubmitJob(api.SubmitJobRequest{
					Name:      fmt.Sprintf("stress-%d-%d", n, k),
					Algorithm: "workqueue",
					Workload:  syntheticWorkload(tasksPerJob, 2),
					Tenant:    tenant,
					Weight:    1 + (n+k)%4,
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				submitted.Add(1)
				jobIDs <- id
			}
		}(i)
	}

	// Workers: pull/report loops with occasional failures and re-registration.
	stop := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n)))
			reg, err := s.Register(n % 2)
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			for {
				select {
				case <-stop:
					_ = s.Deregister(reg.WorkerID)
					return
				default:
				}
				resp, err := s.Pull(nil, reg.WorkerID, 20*time.Millisecond)
				if err != nil {
					t.Errorf("pull: %v", err)
					return
				}
				if resp.Status != api.StatusAssigned {
					continue
				}
				outcome := api.OutcomeSuccess
				if rng.Intn(10) == 0 {
					outcome = api.OutcomeFailure
				}
				rep, err := s.Report(resp.Assignment.ID, reg.WorkerID, outcome)
				if err != nil {
					t.Errorf("report: %v", err)
					return
				}
				if rep.Accepted && !rep.Stale && !rep.Cancelled && outcome == api.OutcomeSuccess {
					ackMu.Lock()
					acks[fmt.Sprintf("%s/%d", resp.Assignment.JobID, resp.Assignment.Task.ID)]++
					ackMu.Unlock()
				}
				// Occasional churn: drop the registration mid-stream and
				// come back, exercising slot recycling under load.
				if rng.Intn(50) == 0 {
					_ = s.Deregister(reg.WorkerID)
					if reg, err = s.Register(n % 2); err != nil {
						t.Errorf("re-register: %v", err)
						return
					}
				}
			}
		}(i)
	}

	// Quota flipper: override and revert tenant caps while dispatch runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < quotaFlips; i++ {
			tenant := fmt.Sprintf("t%d", rng.Intn(3))
			if _, err := s.SetTenantQuota(tenant, rng.Intn(4)); err != nil {
				t.Errorf("quota: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
		// Leave every cap lifted so the drain below cannot be throttled to
		// a crawl.
		for i := 0; i < 3; i++ {
			if _, err := s.SetTenantQuota(fmt.Sprintf("t%d", i), 0); err != nil {
				t.Errorf("quota revert: %v", err)
			}
		}
	}()

	// Status readers + deleter: the read-mostly endpoints and retention
	// path run against live dispatch; completed jobs are deleted as they
	// appear, so recovery also exercises the deleted-jobs carry.
	var deleted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < statusProbes; i++ {
			for _, st := range s.Jobs() {
				if st.State == api.JobCompleted && deleted.Load() < 8 {
					if err := s.DeleteJob(st.ID); err == nil {
						deleted.Add(1)
					}
				}
			}
			_ = s.Tenants()
			_ = s.Health()
			time.Sleep(time.Millisecond)
		}
	}()

	// Wait for the full submission volume, then let the workers drain it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if submitted.Load() == submitters*jobsEach && s.Counters().OpenJobs.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled: %d submitted, %d open",
				submitted.Load(), s.Counters().OpenJobs.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	ackMu.Lock()
	perJob := make(map[string]int)
	for key, n := range acks {
		if n > 1 {
			t.Fatalf("%s acknowledged complete %d times", key, n)
		}
		perJob[key[:len(key)-2]]++ // task ids are single digits here
	}
	ackMu.Unlock()
	close(jobIDs)
	total := 0
	for id := range jobIDs {
		total++
		if got := perJob[id]; got != tasksPerJob {
			t.Fatalf("job %s acknowledged %d completions, want %d", id, got, tasksPerJob)
		}
	}
	if total != submitters*jobsEach {
		t.Fatalf("submitted %d jobs, want %d", total, submitters*jobsEach)
	}
	s.Close()

	// The journal must reproduce the same completed universe.
	r, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after mixed traffic: %v", err)
	}
	defer r.Close()
	resident := 0
	for _, st := range r.Jobs() {
		resident++
		if st.State != api.JobCompleted || st.Completed != tasksPerJob {
			t.Fatalf("recovered job %s: %+v", st.ID, st)
		}
	}
	if want := submitters*jobsEach - int(deleted.Load()); resident != want {
		t.Fatalf("recovered %d job records, want %d (%d deleted)", resident, want, deleted.Load())
	}
}

// TestSpeculativeChurnStress mixes speculative re-execution with the two
// ways executions die ugly — severed streams and worker churn — under
// real concurrency (CI runs this under -race). A "molasses" worker sits
// on every lease long enough to be flagged as a straggler, so twins are
// continuously granted into a pool of fast classic workers (which
// deregister and re-register mid-run) and one streaming worker behind a
// connection-severing proxy. The invariants: the job drains, completions
// are exactly-once despite first-report-wins races and batch retries,
// speculation actually fired, and a crash afterwards recovers to the
// identical job state.
func TestSpeculativeChurnStress(t *testing.T) {
	const tasks = 60
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.LeaseTTL = 600 * time.Millisecond
	cfg.SweepInterval = 10 * time.Millisecond
	cfg.Speculation = true
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	proxy, err := faultinject.NewProxy("127.0.0.1:0", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cl := testkit.WireCodec(t, client.New("http://"+proxy.Addr(), nil))

	jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "spec-churn", Algorithm: "workqueue", Workload: syntheticWorkload(tasks, 2), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Chaos: sever every proxied connection (the streaming worker's lease
	// channel and report batches) on a cadence that lets work through.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				proxy.CloseConns()
			}
		}
	}()

	// Streaming worker through the proxy.
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- cl.RunWorker(ctx, client.WorkerConfig{
			StreamBatch:   8,
			ReconnectWait: 30 * time.Millisecond,
			Execute: func(execCtx context.Context, _ core.WorkerRef, _ *api.Assignment) error {
				select {
				case <-execCtx.Done():
				case <-time.After(time.Millisecond):
				}
				return nil
			},
			OnIdle: func(_ context.Context, openJobs int) (bool, error) {
				return openJobs == 0, nil
			},
		})
	}()

	// Molasses: holds each lease far past the fast workers' p95, making
	// every one of its leases a speculation candidate. Reports directly
	// (no proxy), so its late success races the twin's — whoever loses
	// comes back stale or cancelled, never as a second completion.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reg, err := s.Register(0)
		if err != nil {
			t.Errorf("molasses register: %v", err)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := s.Pull(nil, reg.WorkerID, 20*time.Millisecond)
			if err != nil {
				t.Errorf("molasses pull: %v", err)
				return
			}
			if resp.Status != api.StatusAssigned {
				if resp.OpenJobs == 0 {
					return
				}
				continue
			}
			time.Sleep(150 * time.Millisecond)
			if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
				t.Errorf("molasses report: %v", err)
				return
			}
		}
	}()

	// Classic workers with churn: fast pull/report loops that sometimes
	// fail a task and sometimes drop their registration and come back —
	// both paths fold failure events into the very telemetry speculation
	// reads while it is being read.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + n)))
			reg, err := s.Register(n % 2)
			if err != nil {
				t.Errorf("worker register: %v", err)
				return
			}
			for {
				select {
				case <-stop:
					_ = s.Deregister(reg.WorkerID)
					return
				default:
				}
				resp, err := s.Pull(nil, reg.WorkerID, 20*time.Millisecond)
				if err != nil {
					t.Errorf("worker pull: %v", err)
					return
				}
				if resp.Status == api.StatusAssigned {
					outcome := api.OutcomeSuccess
					if rng.Intn(10) == 0 {
						outcome = api.OutcomeFailure
					}
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, outcome); err != nil {
						t.Errorf("worker report: %v", err)
						return
					}
				} else if resp.OpenJobs == 0 {
					return
				}
				if rng.Intn(40) == 0 {
					_ = s.Deregister(reg.WorkerID)
					if reg, err = s.Register(n % 2); err != nil {
						t.Errorf("re-register: %v", err)
						return
					}
				}
			}
		}(i)
	}

	deadline := time.Now().Add(80 * time.Second)
	for s.Counters().OpenJobs.Load() != 0 {
		if time.Now().After(deadline) {
			st, _ := s.JobStatus(jobID)
			t.Fatalf("drain stalled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := <-streamDone; err != nil {
		t.Fatalf("streaming worker: %v", err)
	}

	pre, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if pre.State != api.JobCompleted || pre.Completed != tasks || pre.Remaining != 0 {
		t.Fatalf("job after churn: %+v", pre)
	}
	if got := s.Counters().Completions.Load(); got != tasks {
		t.Fatalf("completions = %d, want exactly %d (exactly-once broken)", got, tasks)
	}
	if got := s.Counters().SpeculativeDispatches.Load(); got == 0 {
		t.Fatal("no speculative dispatch fired; the stress did not exercise speculation")
	}

	// Crash and recover: the journal must reproduce the post-churn state.
	s.CrashForTest()
	r, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after speculative churn: %v", err)
	}
	defer r.Close()
	post, err := r.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("recovery identity broken:\n live %+v\nrecov %+v", pre, post)
	}
}
