// Speculation lifecycle coverage: what happens to a primary/twin pair
// when the process crashes mid-speculation, when either worker of the
// pair deregisters, and when the primary's lease expires — the paths
// where a naive implementation double-completes the task or loses it.
// The crash tests double as recovery-identity coverage for the new
// journal records (speculative dispatch ops, worker-context snapshots).
package service_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// specDurableConfig is durableConfig plus the speculation knobs and a fake
// clock: virtual-hour TTL and sweep cadence so nothing moves except when
// the test advances the clock and sweeps.
func specDurableConfig(dir string, clk *policyClock) service.Config {
	cfg := durableConfig(dir)
	cfg.LeaseTTL = time.Hour
	cfg.SweepInterval = time.Hour
	cfg.Clock = clk.now
	cfg.Speculation = true
	return cfg
}

// specLiveConfig is the non-durable variant for the deregistration and
// expiry tests, which need no journal.
func specLiveConfig(clk *policyClock) service.Config {
	return service.Config{
		Topology: service.Topology{
			Sites:          2,
			WorkersPerSite: 4,
			CapacityFiles:  120,
		},
		NewScheduler:  gridsched.SchedulerFactory(),
		LeaseTTL:      time.Hour,
		SweepInterval: time.Hour,
		Clock:         clk.now,
		Speculation:   true,
	}
}

// stagedSpec is the mid-speculation state every lifecycle test starts
// from: a straggling primary lease on the slow worker, three fast
// completions that gave the job a duration distribution, and a freshly
// granted speculative twin on the fast worker.
type stagedSpec struct {
	jobID     string
	slow      *api.RegisterResponse // site 0, holds the straggling primary
	fast      *api.RegisterResponse // site 1, holds the speculative twin
	straggler *api.Assignment       // the primary lease (granted at t=0)
	twin      *api.Assignment       // the speculative twin (granted at t=1000)
}

// stageSpeculation drives s to the staged state: slow pulls at t=0 and
// never reports; fast completes three tasks at 100ms each; at t=1000 the
// sweep flags the straggler (age 1000ms >> 2x p95 of 100ms) and the next
// pull grants its speculative twin.
func stageSpeculation(t *testing.T, s *service.Service, clk *policyClock, algo string, tasks int) *stagedSpec {
	t.Helper()
	jobID, err := s.SubmitJob(api.SubmitJobRequest{Name: "spec-lifecycle", Algorithm: algo, Workload: syntheticWorkload(tasks, 2), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := s.RegisterWorker(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := s.RegisterWorker(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	straggler := pull(t, s, slow.WorkerID)
	if straggler == nil {
		t.Fatal("no assignment for the straggling worker")
	}
	for i := 0; i < 3; i++ {
		asg := pull(t, s, fast.WorkerID)
		if asg == nil {
			t.Fatalf("fast worker starved at pull %d", i)
		}
		clk.ms.Add(100)
		rep, err := s.Report(asg.ID, fast.WorkerID, api.OutcomeSuccess)
		if err != nil || !rep.Accepted || rep.Stale || rep.Cancelled {
			t.Fatalf("fast report %d: %+v (err=%v)", i, rep, err)
		}
	}
	clk.ms.Store(1000)
	s.SweepForTest()
	twin := pull(t, s, fast.WorkerID)
	if twin == nil {
		t.Fatal("sweep staged no speculative twin")
	}
	if twin.Task.ID != straggler.Task.ID {
		t.Fatalf("twin runs task %d, straggler holds task %d", twin.Task.ID, straggler.Task.ID)
	}
	st, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Speculated != 1 || st.Dispatched != 5 || st.Completed != 3 {
		t.Fatalf("staged state: %+v", st)
	}
	return &stagedSpec{jobID: jobID, slow: slow, fast: fast, straggler: straggler, twin: twin}
}

// workerStatusAt finds the merged WorkerStatus for a slot; the caller must
// have a live registration there (telemetry is only visible through one).
func workerStatusAt(t *testing.T, s *service.Service, site, worker int) api.WorkerStatus {
	t.Helper()
	for _, ws := range s.Workers() {
		if ws.Site == site && ws.Worker == worker {
			return ws
		}
	}
	t.Fatalf("no registered worker at slot (%d,%d)", site, worker)
	return api.WorkerStatus{}
}

// drainAll pulls and succeeds assignments on one worker until nothing is
// dispatchable, returning the task ids in dispatch order.
func drainAll(t *testing.T, s *service.Service, workerID string) []workload.TaskID {
	t.Helper()
	var seq []workload.TaskID
	for i := 0; i < 10_000; i++ {
		asg := pull(t, s, workerID)
		if asg == nil {
			return seq
		}
		seq = append(seq, asg.Task.ID)
		rep, err := s.Report(asg.ID, workerID, api.OutcomeSuccess)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Accepted || rep.Stale || rep.Cancelled {
			t.Fatalf("drain report for task %d: %+v", asg.Task.ID, rep)
		}
	}
	t.Fatal("drain did not terminate")
	return nil
}

// copyDirForTest duplicates a data dir byte for byte, so two recoveries
// can replay the same journal independently.
func copyDirForTest(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestCrashRecoveryMidSpeculation kills the service with BOTH halves of a
// primary/twin pair in flight and checks that recovery rebuilds exactly
// the state a live observer saw: the speculative dispatch count, the
// worker-context EWMAs (including the forced-expiry folds recovery itself
// appends), and — across a second crash — bit-identical job status. The
// job then drains to exactly-once completion.
func TestCrashRecoveryMidSpeculation(t *testing.T) {
	const tasks = 8
	dir := t.TempDir()
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}

	a, err := service.New(specDurableConfig(dir, clk))
	if err != nil {
		t.Fatal(err)
	}
	st := stageSpeculation(t, a, clk, "workqueue", tasks)

	// Pre-crash telemetry on the fast slot: three 100ms successes.
	pre := workerStatusAt(t, a, 1, 0)
	if pre.MeanTaskMillis != 100 || pre.FailureRate != 0 || pre.Samples != 3 || pre.Events != 3 {
		t.Fatalf("pre-crash fast-slot telemetry: %+v", pre)
	}

	a.CrashForTest()
	b, err := service.New(specDurableConfig(dir, clk))
	if err != nil {
		t.Fatalf("recovery mid-speculation: %v", err)
	}

	// Recovery force-expired both open leases of the straggling task. The
	// sibling rule requeues the task once (not twice), and the speculative
	// dispatch survives in both the job status and the monotone counter.
	stB, err := b.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Speculated != 1 || stB.Dispatched != 5 || stB.Completed != 3 ||
		stB.Expired != 2 || stB.Failed != 0 || stB.Cancelled != 0 {
		t.Fatalf("recovered job status: %+v", stB)
	}
	if got := b.Counters().SpeculativeDispatches.Load(); got != 1 {
		t.Fatalf("recovered speculative-dispatch counter = %d, want 1", got)
	}
	if got := b.Counters().LeasesExpired.Load(); got != 2 {
		t.Fatalf("recovered expired counter = %d, want 2", got)
	}

	// Registrations are not journaled, so re-register probes into the same
	// slots to read the recovered telemetry. The snapshot restored the
	// pre-crash accumulators and the forced expiries folded one failure
	// onto each slot that held a lease: the slow slot (0,0) saw its first
	// event ever (failure EWMA seeds at 1.0), the fast slot folded one
	// failure into three successes (1/8 step from 0).
	if _, err := b.RegisterWorker(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RegisterWorker(1, nil); err != nil {
		t.Fatal(err)
	}
	slowTel := workerStatusAt(t, b, 0, 0)
	if slowTel.MeanTaskMillis != 0 || slowTel.FailureRate != 1 || slowTel.Samples != 0 || slowTel.Events != 1 {
		t.Fatalf("recovered slow-slot telemetry: %+v", slowTel)
	}
	fastTel := workerStatusAt(t, b, 1, 0)
	if fastTel.MeanTaskMillis != 100 || fastTel.FailureRate != 0.125 || fastTel.Samples != 3 || fastTel.Events != 4 {
		t.Fatalf("recovered fast-slot telemetry: %+v", fastTel)
	}

	// Crash the recovered service before it does anything and recover
	// again: the forced-expiry records it appended must replay to the
	// identical state — the second recovery sees them as ordinary journal
	// tail, not as leases to expire.
	b.CrashForTest()
	d, err := service.New(specDurableConfig(dir, clk))
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer d.Close()
	stD, err := d.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stB, stD) {
		t.Fatalf("double-recovery identity broken:\n first %+v\nsecond %+v", stB, stD)
	}

	// Drain: the requeued straggler plus the four never-dispatched tasks,
	// each completed exactly once.
	w, err := d.RegisterWorker(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := drainAll(t, d, w.WorkerID)
	if len(seq) != 5 {
		t.Fatalf("drain dispatched %d tasks, want 5: %v", len(seq), seq)
	}
	fin, err := d.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobCompleted || fin.Completed != tasks || fin.Remaining != 0 ||
		fin.Dispatched != tasks+2 || fin.Speculated != 1 {
		t.Fatalf("final job status: %+v", fin)
	}
	if got := d.Counters().Completions.Load(); got != tasks {
		t.Fatalf("completions = %d, want exactly %d", got, tasks)
	}
}

// TestSpeculativeRecoveryDispatchIdentity crashes mid-speculation under
// the randomized scheduler and replays the same journal twice (via a
// byte-for-byte copy of the data dir): both recoveries must land on the
// same RNG state, so identically scripted drains dispatch the same task
// sequence. This is the recovery-identity gate for the speculative
// dispatch ledger op, which replays through CommitBatchInto/NoteBatch
// without touching the scheduler's RNG.
func TestSpeculativeRecoveryDispatchIdentity(t *testing.T) {
	const tasks = 12
	dirA := t.TempDir()
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}

	a, err := service.New(specDurableConfig(dirA, clk))
	if err != nil {
		t.Fatal(err)
	}
	st := stageSpeculation(t, a, clk, "combined.2", tasks)
	a.CrashForTest()
	dirB := copyDirForTest(t, dirA)

	b, err := service.New(specDurableConfig(dirA, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := service.New(specDurableConfig(dirB, clk))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stB, err := b.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	stC, err := c.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stB, stC) {
		t.Fatalf("recoveries of the same journal disagree:\n b %+v\n c %+v", stB, stC)
	}

	// Identically scripted drains. The slow slot (0,0) carries one
	// forced-expiry failure event, below the context gate's MinEvents
	// floor, so the probe worker is dispatchable.
	wb, err := b.RegisterWorker(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := c.RegisterWorker(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqB := drainAll(t, b, wb.WorkerID)
	seqC := drainAll(t, c, wc.WorkerID)
	if !reflect.DeepEqual(seqB, seqC) {
		t.Fatalf("dispatch sequences diverge after recovery:\n b %v\n c %v", seqB, seqC)
	}
	finB, err := b.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	finC, err := c.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(finB, finC) {
		t.Fatalf("drained states diverge:\n b %+v\n c %+v", finB, finC)
	}
	if finB.State != api.JobCompleted || finB.Completed != tasks {
		t.Fatalf("job did not drain cleanly: %+v", finB)
	}
	if got := b.Counters().Completions.Load(); got != tasks {
		t.Fatalf("completions = %d, want exactly %d", got, tasks)
	}
}

// TestDeregisterMidSpeculation is the satellite-fix regression: worker
// deregistration with an outstanding speculative twin. Expiring one half
// of the pair must not requeue the task (its sibling still runs it), must
// not let the survivor's completion double-count, and — when the twin is
// the half that dies — must re-arm the task for a later speculation.
func TestDeregisterMidSpeculation(t *testing.T) {
	const tasks = 8

	t.Run("primary", func(t *testing.T) {
		clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
		s, err := service.New(specLiveConfig(clk))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st := stageSpeculation(t, s, clk, "workqueue", tasks)

		// The primary's worker walks away. Its lease expires through the
		// deregistration path; the twin still runs the task, so the
		// scheduler must NOT get a failure (which would requeue a task
		// that is being executed).
		if err := s.Deregister(st.slow.WorkerID); err != nil {
			t.Fatal(err)
		}
		mid, err := s.JobStatus(st.jobID)
		if err != nil {
			t.Fatal(err)
		}
		if mid.Expired != 1 || mid.Failed != 0 {
			t.Fatalf("after primary deregistration: %+v", mid)
		}

		// The twin's completion is the task's one completion.
		rep, err := s.Report(st.twin.ID, st.fast.WorkerID, api.OutcomeSuccess)
		if err != nil || !rep.Accepted || rep.Stale || rep.Cancelled {
			t.Fatalf("twin report: %+v (err=%v)", rep, err)
		}
		if got := s.Counters().SpeculationWins.Load(); got != 1 {
			t.Fatalf("speculation wins = %d, want 1", got)
		}

		seq := drainAll(t, s, st.fast.WorkerID)
		for _, id := range seq {
			if id == st.straggler.Task.ID {
				t.Fatalf("straggler task %d was re-dispatched after deregistration", id)
			}
		}
		fin, err := s.JobStatus(st.jobID)
		if err != nil {
			t.Fatal(err)
		}
		// tasks+1 dispatches: every task once, plus the one twin. A requeue
		// bug would re-dispatch the straggler and break both asserts.
		if fin.State != api.JobCompleted || fin.Completed != tasks || fin.Dispatched != tasks+1 {
			t.Fatalf("final job status: %+v", fin)
		}
		if got := s.Counters().Completions.Load(); got != tasks {
			t.Fatalf("completions = %d, want exactly %d", got, tasks)
		}
	})

	t.Run("twin", func(t *testing.T) {
		clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
		s, err := service.New(specLiveConfig(clk))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st := stageSpeculation(t, s, clk, "workqueue", tasks)

		// The twin's worker walks away: a speculation loss, no requeue (the
		// primary still runs), and the task is re-armed for speculation.
		if err := s.Deregister(st.fast.WorkerID); err != nil {
			t.Fatal(err)
		}
		mid, err := s.JobStatus(st.jobID)
		if err != nil {
			t.Fatal(err)
		}
		if mid.Expired != 1 || mid.Failed != 0 {
			t.Fatalf("after twin deregistration: %+v", mid)
		}
		if got := s.Counters().SpeculationLosses.Load(); got != 1 {
			t.Fatalf("speculation losses = %d, want 1", got)
		}

		// Still straggling at t=2000: the sweep stages a second twin.
		clk.ms.Store(2000)
		s.SweepForTest()
		w3, err := s.RegisterWorker(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		twin2 := pull(t, s, w3.WorkerID)
		if twin2 == nil || twin2.Task.ID != st.straggler.Task.ID {
			t.Fatalf("no second twin after the first died: %+v", twin2)
		}

		// The primary finally lands: it wins, the second twin is obsolete.
		rep, err := s.Report(st.straggler.ID, st.slow.WorkerID, api.OutcomeSuccess)
		if err != nil || !rep.Accepted || rep.Stale || rep.Cancelled {
			t.Fatalf("primary report: %+v (err=%v)", rep, err)
		}
		rep2, err := s.Report(twin2.ID, w3.WorkerID, api.OutcomeSuccess)
		if err != nil || !rep2.Accepted || !rep2.Cancelled {
			t.Fatalf("obsolete twin report: %+v (err=%v)", rep2, err)
		}
		if got := s.Counters().SpeculationLosses.Load(); got != 2 {
			t.Fatalf("speculation losses = %d, want 2", got)
		}
		if got := s.Counters().SpeculationWins.Load(); got != 0 {
			t.Fatalf("speculation wins = %d, want 0", got)
		}

		drainAll(t, s, w3.WorkerID)
		fin, err := s.JobStatus(st.jobID)
		if err != nil {
			t.Fatal(err)
		}
		// tasks+2 dispatches: every task once plus the two twins; exactly
		// one completion per task, the second twin counted cancelled.
		if fin.State != api.JobCompleted || fin.Completed != tasks ||
			fin.Dispatched != tasks+2 || fin.Speculated != 2 || fin.Cancelled != 1 {
			t.Fatalf("final job status: %+v", fin)
		}
		if got := s.Counters().Completions.Load(); got != tasks {
			t.Fatalf("completions = %d, want exactly %d", got, tasks)
		}
	})
}

// TestLeaseExpiryWithSpeculativeTwin expires the straggling primary
// through the sweep's TTL path (not deregistration) while its twin is
// live: same sibling rule, same single completion.
func TestLeaseExpiryWithSpeculativeTwin(t *testing.T) {
	const tasks = 8
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
	s, err := service.New(specLiveConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := stageSpeculation(t, s, clk, "workqueue", tasks)

	// One virtual hour and a millisecond: the primary's lease (granted at
	// t=0) is past its TTL, the twin's (granted at t=1000) is not. The
	// slow worker's registration lapses with it — the sweep expires the
	// worker and orphan-expires its lease.
	clk.ms.Store(time.Hour.Milliseconds() + 1)
	s.SweepForTest()
	mid, err := s.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Expired != 1 || mid.Failed != 0 {
		t.Fatalf("after primary expiry: %+v", mid)
	}

	rep, err := s.Report(st.twin.ID, st.fast.WorkerID, api.OutcomeSuccess)
	if err != nil || !rep.Accepted || rep.Stale || rep.Cancelled {
		t.Fatalf("twin report after primary expiry: %+v (err=%v)", rep, err)
	}
	if got := s.Counters().SpeculationWins.Load(); got != 1 {
		t.Fatalf("speculation wins = %d, want 1", got)
	}

	seq := drainAll(t, s, st.fast.WorkerID)
	for _, id := range seq {
		if id == st.straggler.Task.ID {
			t.Fatalf("straggler task %d was re-dispatched after expiry with a live twin", id)
		}
	}
	fin, err := s.JobStatus(st.jobID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobCompleted || fin.Completed != tasks || fin.Dispatched != tasks+1 {
		t.Fatalf("final job status: %+v", fin)
	}
	if got := s.Counters().Completions.Load(); got != tasks {
		t.Fatalf("completions = %d, want exactly %d", got, tasks)
	}
}
