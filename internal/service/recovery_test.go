package service_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// pull asks for one assignment without parking; nil means nothing was
// dispatchable.
func pull(t *testing.T, s *service.Service, workerID string) *api.Assignment {
	t.Helper()
	resp, err := s.Pull(nil, workerID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != api.StatusAssigned {
		return nil
	}
	return resp.Assignment
}

// durableConfig returns a journaled service config over dir.
func durableConfig(dir string) service.Config {
	return service.Config{
		Topology: service.Topology{
			Sites:          2,
			WorkersPerSite: 4,
			CapacityFiles:  120,
		},
		NewScheduler:  gridsched.SchedulerFactory(),
		Fsync:         journal.SyncBatch,
		SnapshotEvery: 64,
		DataDir:       dir,
	}
}

// crashWorker drives the worker protocol directly against the service,
// recording every acknowledged completion into acks (task id -> count).
// It exits when the service refuses it (crash) or the job completes.
func crashWorker(s *service.Service, site int, rng *rand.Rand, mu *sync.Mutex, acks map[workload.TaskID]int) {
	reg, err := s.Register(site)
	if err != nil {
		return
	}
	for {
		resp, err := s.Pull(nil, reg.WorkerID, 50*time.Millisecond)
		if err != nil {
			return
		}
		if resp.Status != api.StatusAssigned {
			if resp.OpenJobs == 0 {
				return
			}
			continue
		}
		// A little think time so crashes land mid-execution too.
		if d := rng.Intn(3); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		rep, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess)
		if err != nil {
			return
		}
		if rep.Accepted && !rep.Stale && !rep.Cancelled {
			mu.Lock()
			acks[resp.Assignment.Task.ID]++
			mu.Unlock()
		}
	}
}

// TestCrashRecoveryPreservesCompletions is the in-process crash gauntlet:
// an 8-worker sweep is SIGKILL-equivalently crashed several times at
// arbitrary points; every restart recovers from the data dir and the sweep
// continues. At the end the job must be completed with every task
// completed exactly once — no losses, no duplicates — for each scheduler
// family (randomized worker-centric, replicating storage affinity, FIFO).
func TestCrashRecoveryPreservesCompletions(t *testing.T) {
	for _, algo := range []string{"combined.2", "storage-affinity", "workqueue"} {
		t.Run(algo, func(t *testing.T) {
			const tasks = 150
			dir := t.TempDir()
			w := syntheticWorkload(tasks, 4)
			rng := rand.New(rand.NewSource(42))
			var ackMu sync.Mutex
			acks := make(map[workload.TaskID]int)

			var jobID string
			for cycle := 0; ; cycle++ {
				if cycle > 25 {
					t.Fatal("job did not finish within 25 crash cycles")
				}
				s, err := service.New(durableConfig(dir))
				if err != nil {
					t.Fatalf("cycle %d: recovery failed: %v", cycle, err)
				}
				if cycle == 0 {
					jobID, err = s.SubmitJob(api.SubmitJobRequest{Name: "gauntlet", Algorithm: algo, Workload: w, Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
				} else if _, err := s.JobStatus(jobID); err != nil {
					t.Fatalf("cycle %d: job lost: %v", cycle, err)
				}

				var wg sync.WaitGroup
				for i := 0; i < 8; i++ {
					wg.Add(1)
					site := i % 2
					seed := rng.Int63()
					go func() {
						defer wg.Done()
						crashWorker(s, site, rand.New(rand.NewSource(seed)), &ackMu, acks)
					}()
				}

				// Let the sweep run a random while, then either crash it or
				// (on later cycles) give it time to finish.
				limit := time.Duration(20+rng.Intn(60)) * time.Millisecond
				if cycle >= 6 {
					limit = 5 * time.Second
				}
				finished := false
				deadline := time.Now().Add(limit)
				for time.Now().Before(deadline) {
					st, err := s.JobStatus(jobID)
					if err != nil {
						t.Fatal(err)
					}
					if st.State == api.JobCompleted {
						finished = true
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
				if finished {
					st, err := s.JobStatus(jobID)
					if err != nil {
						t.Fatal(err)
					}
					if st.Completed != tasks {
						t.Fatalf("completed %d of %d tasks (dup or loss)", st.Completed, tasks)
					}
					s.Close()
					wg.Wait()
					break
				}
				s.CrashForTest()
				wg.Wait()
			}

			ackMu.Lock()
			defer ackMu.Unlock()
			for id, n := range acks {
				if n > 1 {
					t.Fatalf("task %d acknowledged complete %d times", id, n)
				}
			}

			// One more restart: the completed job must still be there.
			s, err := service.New(durableConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st, err := s.JobStatus(jobID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != api.JobCompleted || st.Completed != tasks {
				t.Fatalf("after final restart: %+v", st)
			}
		})
	}
}

// pullSequence runs one pinned worker against the service, completing n
// tasks (n < 0: until the job drains) and returning the task ids in
// dispatch order.
func pullSequence(t *testing.T, s *service.Service, n int) []workload.TaskID {
	t.Helper()
	site := 0
	reg, err := s.Register(site)
	if err != nil {
		t.Fatal(err)
	}
	var seq []workload.TaskID
	for n < 0 || len(seq) < n {
		resp, err := s.Pull(nil, reg.WorkerID, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusAssigned {
			if resp.OpenJobs == 0 {
				break
			}
			continue
		}
		seq = append(seq, resp.Assignment.Task.ID)
		if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// TestRecoveredDispatchMatchesUninterrupted pins down the "RNG state is
// captured" claim: a combined.2 job interrupted by a crash must, after
// recovery, dispatch the remaining tasks in exactly the order an
// uninterrupted service would have — the recovery replay reproduces the
// scheduler's random draws, not just its task sets.
func TestRecoveredDispatchMatchesUninterrupted(t *testing.T) {
	const tasks, prefix = 80, 30
	w := syntheticWorkload(tasks, 4)

	// Reference: uninterrupted in-memory service.
	ref := newService(t, service.Config{})
	refID, err := ref.SubmitJob(api.SubmitJobRequest{Name: "ref", Algorithm: "combined.2", Workload: w, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	refSeq := pullSequence(t, ref, -1)
	if st, _ := ref.JobStatus(refID); st == nil || st.State != api.JobCompleted {
		t.Fatal("reference job did not complete")
	}

	// Crashed-and-recovered service, same submission.
	dir := t.TempDir()
	a, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SubmitJob(api.SubmitJobRequest{Name: "crashy", Algorithm: "combined.2", Workload: w, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	gotSeq := pullSequence(t, a, prefix)
	a.CrashForTest()

	b, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer b.Close()
	gotSeq = append(gotSeq, pullSequence(t, b, -1)...)

	if len(gotSeq) != len(refSeq) {
		t.Fatalf("dispatched %d tasks across the crash, reference %d", len(gotSeq), len(refSeq))
	}
	for i := range refSeq {
		if gotSeq[i] != refSeq[i] {
			t.Fatalf("dispatch %d: task %d after recovery, task %d uninterrupted", i, gotSeq[i], refSeq[i])
		}
	}
}

// TestRecoveryTruncatesTornJournalTail garbles the journal tail the way a
// crash mid-append would and checks recovery shrugs it off.
func TestRecoveryTruncatesTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	w := syntheticWorkload(40, 3)
	s, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "torn", Algorithm: "rest", Workload: w, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq := pullSequence(t, s, 10)
	if len(seq) != 10 {
		t.Fatalf("dispatched %d", len(seq))
	}
	s.CrashForTest()

	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0xAA, 0x00, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer r.Close()
	st, err := r.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	// The 10 completions were acknowledged before the torn garbage.
	if st.Completed != 10 {
		t.Fatalf("recovered %d completions, want 10", st.Completed)
	}
	if rest := pullSequence(t, r, -1); len(rest) != 30 {
		t.Fatalf("drained %d tasks, want 30", len(rest))
	}
}

// TestSnapshotCompactsJournal checks the snapshot/rotate cycle: after a
// snapshot the journal restarts near-empty and recovery still sees
// everything.
func TestSnapshotCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	w := syntheticWorkload(60, 3)
	cfg := durableConfig(dir)
	cfg.SnapshotEvery = 1 << 30 // only explicit snapshots
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "snap", Algorithm: "overlap", Workload: w, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 25)
	preSize := fileSize(t, filepath.Join(dir, "wal.log"))
	if err := s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	postSize := fileSize(t, filepath.Join(dir, "wal.log"))
	if postSize >= preSize {
		t.Fatalf("rotation did not shrink the journal: %d -> %d bytes", preSize, postSize)
	}
	if fileSize(t, filepath.Join(dir, "snapshot.json")) == 0 {
		t.Fatal("no snapshot written")
	}
	pullSequence(t, s, 5) // a post-snapshot tail
	s.CrashForTest()

	r, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer r.Close()
	st, err := r.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 30 {
		t.Fatalf("recovered %d completions, want 30", st.Completed)
	}
	if rest := pullSequence(t, r, -1); len(rest) != 30 {
		t.Fatalf("drained %d tasks, want 30", len(rest))
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestIdempotentSubmissionAcrossRestart: the same submission id must
// resolve to the same job before and after a crash — the property the
// client's resubmit-after-reconnect relies on.
func TestIdempotentSubmissionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := api.SubmitJobRequest{
		Name: "once", Algorithm: "workqueue", Workload: syntheticWorkload(20, 3), Seed: 1, SubmissionID: "key-abc",
	}
	s, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := s.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("duplicate job: %s then %s", id1, id2)
	}
	s.CrashForTest()

	r, err := service.New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	id3, err := r.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("restart forgot submission key: %s then %s", id1, id3)
	}
	if jobs := r.Jobs(); len(jobs) != 1 {
		t.Fatalf("%d jobs resident, want 1", len(jobs))
	}
}

// leakyScheduler is a byzantine-but-legal Scheduler whose OnTaskComplete
// never names replica victims, recreating the invariant violation behind
// the completion/cancellation race: the job can complete while another
// worker still holds a live, un-cancelled execution of its task.
type leakyScheduler struct {
	w         *workload.Workload
	handedOut int
	done      bool
}

func (l *leakyScheduler) Name() string                                                  { return "leaky" }
func (l *leakyScheduler) AttachSite(site int)                                           {}
func (l *leakyScheduler) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {}
func (l *leakyScheduler) NextFor(at core.WorkerRef) (workload.Task, core.Status) {
	if l.done {
		return workload.Task{}, core.Done
	}
	if l.handedOut >= 2 {
		return workload.Task{}, core.Wait
	}
	l.handedOut++ // replicate task 0 to the first two askers
	return l.w.Tasks[0], core.Assigned
}
func (l *leakyScheduler) OnTaskComplete(id workload.TaskID, at core.WorkerRef) []core.WorkerRef {
	l.done = true
	return nil // never cancels the other replica — the leak
}
func (l *leakyScheduler) OnExecutionFailed(id workload.TaskID, at core.WorkerRef) {
	panic(fmt.Sprintf("resurrected task %d at %+v after completion", id, at))
}
func (l *leakyScheduler) Remaining() int {
	if l.done {
		return 0
	}
	return 1
}

// TestCompletedJobInFlightReportIsCancelled is the regression test for the
// completion/cancellation race: when a job completes while a replica is
// still in flight, the replica's late report must be absorbed as a
// cancellation — not resurrect the task, double-count the completion, or
// nil-panic on the released scheduler (the pre-fix behaviors).
func TestCompletedJobInFlightReportIsCancelled(t *testing.T) {
	w := syntheticWorkload(1, 2)
	for _, viaSweeper := range []bool{false, true} {
		name := "report-path"
		if viaSweeper {
			name = "sweeper-path"
		}
		t.Run(name, func(t *testing.T) {
			cfg := service.Config{NewScheduler: func(_ string, w *workload.Workload, _ service.Topology, _ int64) (core.Scheduler, error) {
				return &leakyScheduler{w: w}, nil
			}}
			if viaSweeper {
				cfg.LeaseTTL = 50 * time.Millisecond
				cfg.SweepInterval = 5 * time.Millisecond
			}
			s := newService(t, cfg)
			jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "leaky", Algorithm: "leaky", Workload: w})
			if err != nil {
				t.Fatal(err)
			}
			w1 := register(t, s, 0)
			w2 := register(t, s, 0)
			a1 := pull(t, s, w1.WorkerID)
			a2 := pull(t, s, w2.WorkerID)
			if a1 == nil || a2 == nil || a1.Task.ID != 0 || a2.Task.ID != 0 {
				t.Fatalf("replication setup failed: %+v %+v", a1, a2)
			}

			// First replica completes the job.
			rep, err := s.Report(a1.ID, w1.WorkerID, api.OutcomeSuccess)
			if err != nil {
				t.Fatal(err)
			}
			if rep.JobState != api.JobCompleted {
				t.Fatalf("job state %q after completing report", rep.JobState)
			}

			if viaSweeper {
				// The second replica's lease expires under the sweeper.
				deadline := time.Now().Add(2 * time.Second)
				for {
					st, err := s.JobStatus(jobID)
					if err != nil {
						t.Fatal(err)
					}
					if st.Cancelled == 1 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("lease expiry never cancelled the replica: %+v", st)
					}
					time.Sleep(5 * time.Millisecond)
				}
			} else {
				// The second replica reports in after job completion.
				rep2, err := s.Report(a2.ID, w2.WorkerID, api.OutcomeSuccess)
				if err != nil {
					t.Fatal(err)
				}
				if !rep2.Accepted || !rep2.Cancelled {
					t.Fatalf("in-flight report after completion: %+v", rep2)
				}
			}

			st, err := s.JobStatus(jobID)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != api.JobCompleted || st.Completed != 1 || st.Cancelled != 1 {
				t.Fatalf("final status %+v, want completed=1 cancelled=1", st)
			}
			// No resurrection: a fresh worker finds nothing to run.
			w3 := register(t, s, 1)
			if a := pull(t, s, w3.WorkerID); a != nil {
				t.Fatalf("completed task resurrected as %+v", a)
			}
		})
	}
}

// TestServiceNeverSharesAnIndex pins what keeps a job's memory and a
// restart's time where they are: the neighbour table core builds for a
// sweep of schedulers over one workload (core.ShareIndex) is never built
// for a job's — not when it is submitted, not when it is recovered, not
// while it drains under the metric that would use one.
func TestServiceNeverSharesAnIndex(t *testing.T) {
	var seen []*workload.Workload
	cfg := durableConfig(t.TempDir())
	inner := cfg.NewScheduler
	cfg.NewScheduler = func(algorithm string, w *workload.Workload, topo service.Topology, seed int64) (core.Scheduler, error) {
		seen = append(seen, w)
		return inner(algorithm, w, topo, seed)
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "coadd", Algorithm: "combined.2", Workload: syntheticWorkload(120, 6), Seed: 3}); err != nil {
		t.Fatal(err)
	}
	worker := register(t, s, 0).WorkerID
	for i := 0; i < 40; i++ {
		asg := pull(t, s, worker)
		if _, err := s.Report(asg.ID, worker, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	if s, err = service.New(cfg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(drainAll(t, s, register(t, s, 1).WorkerID)); got != 80 {
		t.Fatalf("drained %d tasks after the restart, want 80", got)
	}
	if len(seen) != 2 {
		t.Fatalf("the factory built %d schedulers, want one at submit and one at recovery", len(seen))
	}
	for i, w := range seen {
		if core.ShareIndex(w) {
			t.Errorf("workload %d of the job carries a neighbour table", i)
		}
	}
	// And the question can be answered yes: asked for, the table is there.
	if !core.ShareIndex(seen[1]) {
		t.Fatal("the table ShareIndex built is gone")
	}
}
