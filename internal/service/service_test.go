package service_test

import (
	"context"
	"errors"
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
	"gridsched/internal/workload"
)

// never parks a pull long enough to matter in tests.
const noWait = 0

// syntheticWorkload builds tasks tasks of filesPer files each, with enough
// sharing (file ids wrap) to exercise the data-aware schedulers.
func syntheticWorkload(tasks, filesPer int) *workload.Workload {
	numFiles := tasks*filesPer/2 + filesPer
	w := &workload.Workload{Name: "synthetic", NumFiles: numFiles}
	for i := 0; i < tasks; i++ {
		t := workload.Task{ID: workload.TaskID(i)}
		for f := 0; f < filesPer; f++ {
			t.Files = append(t.Files, workload.FileID((i*filesPer/2+f)%numFiles))
		}
		w.Tasks = append(w.Tasks, t)
	}
	return w
}

func newService(t *testing.T, cfg service.Config) *service.Service {
	t.Helper()
	if cfg.Sites == 0 {
		cfg.Sites = 2
	}
	if cfg.WorkersPerSite == 0 {
		cfg.WorkersPerSite = 2
	}
	if cfg.CapacityFiles == 0 {
		cfg.CapacityFiles = 100
	}
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = gridsched.SchedulerFactory()
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func submitWorkqueue(t *testing.T, s *service.Service, w *workload.Workload) string {
	t.Helper()
	id, err := s.SubmitJob(api.SubmitJobRequest{Name: "test", Algorithm: "workqueue", Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func register(t *testing.T, s *service.Service, site int) *api.RegisterResponse {
	t.Helper()
	reg, err := s.Register(site)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func never(t *testing.T) <-chan struct{} {
	t.Helper()
	return make(chan struct{})
}

func TestPullReportDrivesJobToCompletion(t *testing.T) {
	s := newService(t, service.Config{})
	w := syntheticWorkload(20, 3)
	jobID := submitWorkqueue(t, s, w)
	reg := register(t, s, -1)

	for i := 0; i < len(w.Tasks); i++ {
		resp, err := s.Pull(never(t), reg.WorkerID, noWait)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusAssigned {
			t.Fatalf("pull %d: status %q", i, resp.Status)
		}
		rep, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted || rep.Stale {
			t.Fatalf("report %d rejected: %+v", i, rep)
		}
	}
	st, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted || st.Completed != 20 || st.Remaining != 0 {
		t.Fatalf("job after drain: %+v", st)
	}
	if st.Dispatched != 20 {
		t.Fatalf("dispatched %d, want 20 (no retries, no replicas)", st.Dispatched)
	}
	if st.Transfers == 0 {
		t.Fatal("no file transfers recorded despite staging")
	}
	if got := s.Counters().Completions.Load(); got != 20 {
		t.Fatalf("completions counter = %d", got)
	}
}

func TestMultipleJobsResident(t *testing.T) {
	s := newService(t, service.Config{})
	wa, wb := syntheticWorkload(8, 2), syntheticWorkload(6, 2)
	jobA := submitWorkqueue(t, s, wa)
	jobB, err := s.SubmitJob(api.SubmitJobRequest{Name: "b", Algorithm: "rest", Workload: wb, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, s, -1)
	for i := 0; i < 14; i++ {
		resp, err := s.Pull(never(t), reg.WorkerID, noWait)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusAssigned {
			t.Fatalf("pull %d: status %q", i, resp.Status)
		}
		if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{jobA, jobB} {
		st, err := s.JobStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.JobCompleted {
			t.Fatalf("job %s not completed: %+v", id, st)
		}
	}
	if open := s.Counters().OpenJobs.Load(); open != 0 {
		t.Fatalf("open jobs gauge = %d", open)
	}
}

func TestLeaseExpiryRequeuesAndRejectsStaleReport(t *testing.T) {
	s := newService(t, service.Config{
		LeaseTTL:      60 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	w := syntheticWorkload(1, 2)
	jobID := submitWorkqueue(t, s, w)

	// Worker 1 takes the task and goes silent (no heartbeat, no report).
	dead := register(t, s, 0)
	resp, err := s.Pull(never(t), dead.WorkerID, noWait)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != api.StatusAssigned {
		t.Fatalf("status %q", resp.Status)
	}
	deadAssignment := resp.Assignment.ID

	// Worker 2 long-polls; the expired lease must hand it the same task.
	live := register(t, s, 1)
	resp2, err := s.Pull(never(t), live.WorkerID, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Status != api.StatusAssigned {
		t.Fatalf("re-dispatch: status %q", resp2.Status)
	}
	if resp2.Assignment.Task.ID != resp.Assignment.Task.ID {
		t.Fatalf("re-dispatched task %d, want %d", resp2.Assignment.Task.ID, resp.Assignment.Task.ID)
	}
	if rep, err := s.Report(resp2.Assignment.ID, live.WorkerID, api.OutcomeSuccess); err != nil || !rep.Accepted {
		t.Fatalf("live report: %+v, %v", rep, err)
	}

	// The dead worker comes back: its report must be rejected as stale.
	rep, err := s.Report(deadAssignment, dead.WorkerID, api.OutcomeSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted || !rep.Stale {
		t.Fatalf("stale report accepted: %+v", rep)
	}

	st, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.State != api.JobCompleted {
		t.Fatalf("duplicate or missing completion: %+v", st)
	}
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if st.Dispatched != 2 {
		t.Fatalf("dispatched = %d, want 2", st.Dispatched)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	s := newService(t, service.Config{
		LeaseTTL:      80 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	jobID := submitWorkqueue(t, s, syntheticWorkload(1, 2))
	reg := register(t, s, -1)
	resp, err := s.Pull(never(t), reg.WorkerID, noWait)
	if err != nil {
		t.Fatal(err)
	}
	// Outlive several TTLs on heartbeats alone.
	for i := 0; i < 12; i++ {
		time.Sleep(25 * time.Millisecond)
		hb, err := s.Heartbeat(resp.Assignment.ID, reg.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if hb.State != api.HeartbeatActive {
			t.Fatalf("heartbeat %d: state %q", i, hb.State)
		}
	}
	if rep, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil || !rep.Accepted {
		t.Fatalf("report after heartbeats: %+v, %v", rep, err)
	}
	st, _ := s.JobStatus(jobID)
	if st.Expired != 0 || st.Completed != 1 {
		t.Fatalf("lease expired despite heartbeats: %+v", st)
	}
}

func TestFailureReportRequeues(t *testing.T) {
	s := newService(t, service.Config{})
	jobID := submitWorkqueue(t, s, syntheticWorkload(1, 2))
	reg := register(t, s, -1)

	resp, err := s.Pull(never(t), reg.WorkerID, noWait)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeFailure); err != nil {
		t.Fatal(err)
	}
	resp, err = s.Pull(never(t), reg.WorkerID, noWait)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != api.StatusAssigned {
		t.Fatalf("after failure: status %q", resp.Status)
	}
	if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}
	st, _ := s.JobStatus(jobID)
	if st.State != api.JobCompleted || st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("retry path: %+v", st)
	}
}

func TestWorkerSlotsExhaustAndRecycle(t *testing.T) {
	s := newService(t, service.Config{Topology: service.Topology{Sites: 1, WorkersPerSite: 2, CapacityFiles: 10}})
	a := register(t, s, 0)
	register(t, s, 0)
	if _, err := s.Register(0); err == nil {
		t.Fatal("third worker accepted into 2 slots")
	}
	if err := s.Deregister(a.WorkerID); err != nil {
		t.Fatal(err)
	}
	c := register(t, s, 0)
	if c.Worker != a.Worker {
		t.Fatalf("recycled slot %d, want %d", c.Worker, a.Worker)
	}
	if _, err := s.Register(7); err == nil {
		t.Fatal("accepted out-of-range site")
	}
}

func TestDeregisterRequeuesOutstandingAssignment(t *testing.T) {
	s := newService(t, service.Config{})
	jobID := submitWorkqueue(t, s, syntheticWorkload(1, 2))
	reg := register(t, s, -1)
	if _, err := s.Pull(never(t), reg.WorkerID, noWait); err != nil {
		t.Fatal(err)
	}
	if err := s.Deregister(reg.WorkerID); err != nil {
		t.Fatal(err)
	}
	reg2 := register(t, s, -1)
	resp, err := s.Pull(never(t), reg2.WorkerID, noWait)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != api.StatusAssigned {
		t.Fatalf("after deregister: status %q", resp.Status)
	}
	if _, err := s.Report(resp.Assignment.ID, reg2.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}
	st, _ := s.JobStatus(jobID)
	if st.State != api.JobCompleted {
		t.Fatalf("job not completed: %+v", st)
	}
}

func TestLongPollWakesOnSubmission(t *testing.T) {
	s := newService(t, service.Config{})
	reg := register(t, s, -1)
	type result struct {
		resp *api.PullResponse
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := s.Pull(never(t), reg.WorkerID, 5*time.Second)
		got <- result{resp, err}
	}()
	time.Sleep(30 * time.Millisecond) // let the poll park
	start := time.Now()
	submitWorkqueue(t, s, syntheticWorkload(1, 2))
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.Status != api.StatusAssigned {
			t.Fatalf("status %q", r.resp.Status)
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("parked poll took %v to wake after submission", waited)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("parked poll never woke on job submission")
	}
}

// TestAbandonedPullGivesWayToTheNextPull: to the server a long-poll the
// client gave up on is a parked pull until the connection is seen to close.
// The pull that follows it must be served, not refused: a 409 would make a
// worker deregister and re-register for nothing. The abandoned pull ends
// (499) as soon as it is superseded, and the task goes to the live one.
func TestAbandonedPullGivesWayToTheNextPull(t *testing.T) {
	s := newService(t, service.Config{})
	reg := register(t, s, -1)
	abandoned := make(chan error, 1)
	go func() {
		// never(t): the server has not noticed that the client left.
		_, err := s.Pull(never(t), reg.WorkerID, 5*time.Second)
		abandoned <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the poll park

	type result struct {
		resp *api.PullResponse
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := s.Pull(never(t), reg.WorkerID, 5*time.Second)
		got <- result{resp, err}
	}()
	select {
	case err := <-abandoned:
		var se *service.Error
		if !errors.As(err, &se) || se.Code != 499 {
			t.Fatalf("superseded pull returned %v, want a 499", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("superseded pull still parked")
	}
	submitWorkqueue(t, s, syntheticWorkload(1, 2))
	select {
	case r := <-got:
		if r.err != nil || r.resp.Status != api.StatusAssigned {
			t.Fatalf("pull after an abandoned pull: %+v, %v", r.resp, r.err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("pull after an abandoned pull never got the task")
	}
	// Holding a lease is still a conflict, abandoned pull or not.
	var se *service.Error
	if _, err := s.Pull(never(t), reg.WorkerID, 0); !errors.As(err, &se) || se.Code != 409 {
		t.Fatalf("pull while holding a lease: %v, want 409", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newService(t, service.Config{Topology: service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 2}})
	big := syntheticWorkload(2, 4) // 4 files per task > capacity 2
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "big", Algorithm: "workqueue", Workload: big}); err == nil {
		t.Fatal("accepted workload larger than store capacity")
	}
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "nil", Algorithm: "workqueue"}); err == nil {
		t.Fatal("accepted nil workload")
	}
	var se *service.Error
	_, err := s.JobStatus("nope")
	if !errors.As(err, &se) {
		t.Fatalf("JobStatus error %T, want *service.Error", err)
	}
	if err.Error() != se.Msg || !strings.Contains(se.Msg, "nope") {
		t.Fatalf("JobStatus error %q, want its message naming the job", err)
	}
	// Jobs enter by algorithm name alone, so a service no factory could
	// build a job for is refused at construction.
	if _, err := service.New(service.Config{Topology: service.Topology{Sites: 1, WorkersPerSite: 1, CapacityFiles: 2}}); err == nil {
		t.Fatal("built a service with no scheduler factory")
	}
}

func TestUnknownWorkerAndOutcome(t *testing.T) {
	s := newService(t, service.Config{})
	if _, err := s.Pull(never(t), "w999", noWait); err == nil {
		t.Fatal("pull for unknown worker accepted")
	}
	submitWorkqueue(t, s, syntheticWorkload(1, 2))
	reg := register(t, s, -1)
	resp, err := s.Pull(never(t), reg.WorkerID, noWait)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, "shrug"); err == nil {
		t.Fatal("accepted unknown outcome")
	}
	// Pull while holding an assignment is a protocol violation.
	if _, err := s.Pull(never(t), reg.WorkerID, noWait); err == nil {
		t.Fatal("double pull accepted")
	}
}

func TestReplicaCancellationPropagates(t *testing.T) {
	// Storage affinity with replicas: two workers run the same task; the
	// first success marks the other execution cancelled, its heartbeat
	// says so, and its report counts as cancelled, not completed.
	w := &workload.Workload{
		Name:     "single",
		NumFiles: 2,
		Tasks:    []workload.Task{{ID: 0, Files: []workload.FileID{0, 1}}},
	}
	topo := service.Topology{Sites: 2, WorkersPerSite: 1, CapacityFiles: 10}
	submit := func(t *testing.T, s *service.Service) string {
		t.Helper()
		jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "replicas", Algorithm: "storage-affinity", Workload: w})
		if err != nil {
			t.Fatal(err)
		}
		return jobID
	}
	wantAccounting := func(t *testing.T, s *service.Service, jobID string) {
		t.Helper()
		st, _ := s.JobStatus(jobID)
		if st.Completed != 1 || st.Cancelled != 1 || st.State != api.JobCompleted {
			t.Fatalf("replica accounting: %+v", st)
		}
	}

	t.Run("service calls", func(t *testing.T) {
		s := newService(t, service.Config{Topology: topo})
		jobID := submit(t, s)
		w0, w1 := register(t, s, 0), register(t, s, 1)
		r0, err := s.Pull(never(t), w0.WorkerID, noWait)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := s.Pull(never(t), w1.WorkerID, noWait)
		if err != nil {
			t.Fatal(err)
		}
		if r0.Status != api.StatusAssigned || r1.Status != api.StatusAssigned {
			t.Fatalf("both workers should run the single task: %q %q", r0.Status, r1.Status)
		}
		if r0.Assignment.Task.ID != r1.Assignment.Task.ID {
			t.Fatal("workers got different tasks from a one-task workload")
		}
		if rep, err := s.Report(r0.Assignment.ID, w0.WorkerID, api.OutcomeSuccess); err != nil || !rep.Accepted {
			t.Fatalf("first completion: %+v, %v", rep, err)
		}
		hb, err := s.Heartbeat(r1.Assignment.ID, w1.WorkerID)
		if err != nil {
			t.Fatal(err)
		}
		if hb.State != api.HeartbeatCancelled {
			t.Fatalf("replica heartbeat state %q, want cancelled", hb.State)
		}
		rep, err := s.Report(r1.Assignment.ID, w1.WorkerID, api.OutcomeFailure)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted || !rep.Cancelled {
			t.Fatalf("replica report: %+v", rep)
		}
		wantAccounting(t, s, jobID)
	})

	// Through client.RunWorker the cancellation reaches the losing
	// execution's context: the first execution to start runs until it is
	// cancelled, and only its replica can complete the task.
	t.Run("RunWorker", func(t *testing.T) {
		s := newService(t, service.Config{Topology: topo, LeaseTTL: 600 * time.Millisecond})
		jobID := submit(t, s)
		cl := testkit.WireCodec(t, client.InProcess(s.Handler()))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		var starts atomic.Int64
		var interrupted atomic.Bool
		errs := make(chan error, 2)
		for site := range 2 {
			go func() {
				errs <- cl.RunWorker(ctx, client.WorkerConfig{
					Site: &site,
					Execute: func(execCtx context.Context, _ core.WorkerRef, _ *api.Assignment) error {
						if starts.Add(1) == 1 {
							<-execCtx.Done()
							interrupted.Store(ctx.Err() == nil)
						}
						return nil
					},
					OnIdle: func(_ context.Context, openJobs int) (bool, error) {
						return openJobs == 0, nil
					},
				})
			}()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if !interrupted.Load() {
			t.Fatal("the losing execution was never cancelled")
		}
		wantAccounting(t, s, jobID)
	})
}

func TestDeleteJobRetention(t *testing.T) {
	s := newService(t, service.Config{})
	jobID := submitWorkqueue(t, s, syntheticWorkload(1, 2))
	if err := s.DeleteJob(jobID); err == nil {
		t.Fatal("deleted a running job")
	}
	reg := register(t, s, -1)
	resp, err := s.Pull(never(t), reg.WorkerID, noWait)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
		t.Fatal(err)
	}
	// Completed: the status summary survives (heavy state is released)...
	st, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted || st.Tasks != 1 || st.Completed != 1 || st.Remaining != 0 {
		t.Fatalf("completed summary: %+v", st)
	}
	// ...and the record can now be dropped.
	if err := s.DeleteJob(jobID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.JobStatus(jobID); err == nil {
		t.Fatal("deleted job still readable")
	}
	if err := s.DeleteJob(jobID); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestClosedServiceRefuses(t *testing.T) {
	s := newService(t, service.Config{})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Register(-1); err == nil {
		t.Fatal("register on closed service accepted")
	}
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "late", Algorithm: "workqueue", Workload: syntheticWorkload(1, 1)}); err == nil {
		t.Fatal("submit on closed service accepted")
	}
}
