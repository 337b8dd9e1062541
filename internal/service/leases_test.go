package service

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// scriptedSched is a workqueue whose NextFor first runs onNext, once.
type scriptedSched struct {
	core.Scheduler
	onNext func()
}

func (s *scriptedSched) NextFor(at core.WorkerRef) (workload.Task, core.Status) {
	if f := s.onNext; f != nil {
		s.onNext = nil
		f()
	}
	return s.Scheduler.NextFor(at)
}

// oneFileTasks is a workload of n tasks with a file each.
func oneFileTasks(n int) *workload.Workload {
	w := &workload.Workload{Name: "w", NumFiles: n}
	for i := 0; i < n; i++ {
		w.Tasks = append(w.Tasks, workload.Task{ID: workload.TaskID(i), Files: []workload.FileID{workload.FileID(i)}})
	}
	return w
}

func newLeaseTestService(t *testing.T, cfg Config, newSched func(*workload.Workload) core.Scheduler) *Service {
	t.Helper()
	cfg.Topology = Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 8}
	cfg.NewScheduler = func(_ string, w *workload.Workload, _ Topology, _ int64) (core.Scheduler, error) {
		return newSched(w), nil
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestGrantToVanishedWorkerRequeues: a worker deregistered between the
// scheduler's decision and the lease's attach gets a 404, the grant is
// expired back into the queue (requeueOrphan), and the next worker is
// handed that very task, which completes exactly once. Deregister runs
// inside NextFor, under the service lock: the worker holds no lease yet, so
// it expires nothing and takes no service lock.
func TestGrantToVanishedWorkerRequeues(t *testing.T) {
	var s *Service
	var gone string
	s = newLeaseTestService(t, Config{}, func(w *workload.Workload) core.Scheduler {
		return &scriptedSched{Scheduler: core.NewWorkqueue(w), onNext: func() {
			if err := s.Deregister(gone); err != nil {
				t.Error(err)
			}
		}}
	})
	jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "orphan", Algorithm: "workqueue", Workload: oneFileTasks(1)})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := s.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	gone = reg.WorkerID

	_, err = s.Pull(nil, gone, 0)
	var perr *Error
	if !errors.As(err, &perr) || perr.Code != 404 {
		t.Fatalf("pull by a worker deregistered mid-grant: %v, want a 404", err)
	}
	st, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dispatched != 1 || st.Expired != 1 || st.Completed != 0 || st.Remaining != 1 {
		t.Fatalf("after the orphaned grant: %+v, want 1 dispatched, 1 expired, 1 remaining", st)
	}

	next, err := s.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Pull(nil, next.WorkerID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != api.StatusAssigned || resp.Assignment.Task.ID != 0 {
		t.Fatalf("next pull: %+v, want task 0", resp)
	}
	rep, err := s.Report(resp.Assignment.ID, next.WorkerID, api.OutcomeSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || rep.Cancelled || rep.JobState != api.JobCompleted {
		t.Fatalf("report: %+v, want accepted and the job completed", rep)
	}
	if st, _ = s.JobStatus(jobID); st.Completed != 1 || st.Dispatched != 2 {
		t.Fatalf("after the drain: %+v, want 1 completed of 2 dispatched", st)
	}
	if got := s.Counters().Completions.Load(); got != 1 {
		t.Fatalf("completions counter %d, want 1", got)
	}
}

// TestReportBatchJournalsInItemOrder: a report batch whose items interleave
// three jobs is journaled in item order, at consecutive LSNs.
func TestReportBatchJournalsInItemOrder(t *testing.T) {
	s := newLeaseTestService(t, Config{DataDir: t.TempDir(), Fsync: journal.SyncNever}, func(w *workload.Workload) core.Scheduler {
		return core.NewWorkqueue(w)
	})
	for i := 0; i < 3; i++ {
		if _, err := s.SubmitJob(api.SubmitJobRequest{Name: fmt.Sprint(i), Algorithm: "workqueue", Workload: oneFileTasks(2)}); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := s.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := s.attachWorker(reg.WorkerID, streamSession)
	if err != nil {
		t.Fatal(err)
	}
	var granted []api.Assignment
	if _, err := s.serve(nil, ss, 6, func(lb api.LeaseBatch, _ bool) (time.Duration, bool) {
		granted = lb.Assignments
		return 0, false
	}); err != nil {
		t.Fatal(err)
	}
	byJob := map[string][]api.Assignment{}
	for _, a := range granted {
		byJob[a.JobID] = append(byJob[a.JobID], a)
	}
	var items []api.ReportItem
	var want []string
	for round := 0; round < 2; round++ {
		for _, job := range []string{"j1", "j2", "j3"} {
			if len(byJob[job]) <= round {
				t.Fatalf("granted %+v: want two tasks of each of j1, j2, j3", granted)
			}
			a := byJob[job][round]
			items = append(items, api.ReportItem{AssignmentID: a.ID, Outcome: api.OutcomeSuccess})
			want = append(want, fmt.Sprintf("%s/%d", a.JobID, a.Task.ID))
		}
	}
	before := s.pst.w.LastLSN()
	resp, err := s.ReportBatch(reg.WorkerID, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if !r.Accepted {
			t.Fatalf("item %d: %+v", i, r)
		}
	}

	var got []string
	var lsns []uint64
	if _, err := journal.ReadLog(s.walPath(), before, func(lsn uint64, payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		if rec.Op == opReport {
			got = append(got, fmt.Sprintf("%s/%d", rec.Job, rec.Task))
			lsns = append(lsns, lsn)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("journaled reports %v, want item order %v", got, want)
	}
	for i := range lsns {
		if lsns[i] != before+1+uint64(i) {
			t.Fatalf("report LSNs %v after %d, want consecutive from %d", lsns, before, before+1)
		}
	}
}
