// The deterministic policy-trace gate: scripted worker timelines, ordered
// by the internal/sim kernel, replayed against the REAL service — fake clock, seeded
// schedulers, HTTP client in whatever codec GRIDSCHED_TEST_CODEC selects —
// so straggler speculation, context gating, constraint matching, and
// deadline urgency are validated end to end on the production dispatch
// path, not on a model of it. Every trace is a pure function of its
// script: the sim kernel orders all activity, the service clock only
// moves when the script advances it, and sweeps run at scripted instants.
package service_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/sim"
	"gridsched/internal/testkit"
)

// policyClock is the fake service clock: a fixed base plus a virtual
// millisecond offset the trace advances. Atomic because the service's
// background sweeper may sample it concurrently.
type policyClock struct {
	base time.Time
	ms   atomic.Int64
}

func (c *policyClock) now() time.Time {
	return c.base.Add(time.Duration(c.ms.Load()) * time.Millisecond)
}

// policyEnv is one harness instance: a service under a fake clock, an
// HTTP server over its real handler, and a codec-honoring client.
type policyEnv struct {
	s   *service.Service
	cl  *client.Client
	clk *policyClock
}

// newPolicyEnv builds the service for a trace. Lease TTL and sweep
// interval are a virtual hour so nothing expires behind the script's
// back; the trace triggers sweeps itself at every virtual-time step.
func newPolicyEnv(t *testing.T, sites, workersPerSite int, speculate bool) *policyEnv {
	t.Helper()
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
	cfg := service.Config{
		Topology: service.Topology{
			Sites:          sites,
			WorkersPerSite: workersPerSite,
			CapacityFiles:  1000,
		},
		NewScheduler:  gridsched.SchedulerFactory(),
		LeaseTTL:      time.Hour,
		SweepInterval: time.Hour,
		Clock:         clk.now,
		Speculation:   speculate,
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &policyEnv{s: s, cl: testkit.WireCodec(t, client.New(srv.URL, nil)), clk: clk}
}

// liveBackend is the scheduling surface a trace drives; every call
// completes, with all its effects, before it returns. Worker-facing calls
// go through the HTTP client so the wire codec is really exercised; clock
// advancement and completion checks go straight to the service.
type liveBackend struct {
	env  *policyEnv
	jobs []string
}

func (b *liveBackend) Register(site int, tags []string) (string, error) {
	reg, err := b.env.cl.RegisterWorker(context.Background(), &site, tags)
	if err != nil {
		return "", err
	}
	return reg.WorkerID, nil
}

func (b *liveBackend) Pull(workerID string) (string, bool, error) {
	resp, err := b.env.cl.Pull(context.Background(), workerID, 0)
	if err != nil {
		return "", false, err
	}
	if resp.Status != api.StatusAssigned {
		return "", false, nil
	}
	return resp.Assignment.ID, true, nil
}

func (b *liveBackend) Report(workerID, assignmentID string, fail bool) (bool, error) {
	outcome := api.OutcomeSuccess
	if fail {
		outcome = api.OutcomeFailure
	}
	rep, err := b.env.cl.Report(context.Background(), assignmentID, workerID, outcome)
	if err != nil {
		return false, err
	}
	return rep.Accepted && !rep.Stale && !rep.Cancelled && !fail, nil
}

func (b *liveBackend) AdvanceTo(millis int64) {
	if millis > b.env.clk.ms.Load() {
		b.env.clk.ms.Store(millis)
	}
	b.env.s.SweepForTest()
}

func (b *liveBackend) Open() (bool, error) {
	for _, id := range b.jobs {
		st, err := b.env.s.JobStatus(id)
		if err != nil {
			return false, err
		}
		if st.State == api.JobRunning {
			return true, nil
		}
	}
	return false, nil
}

// policyWorker scripts one worker's behavior.
type policyWorker struct {
	// Site the worker registers at.
	Site int
	// Tags are the capability tags it registers with.
	Tags []string
	// TaskMillis is how long the worker takes to execute one task.
	TaskMillis int64
	// FailEvery makes every Nth execution (1-based) report failure;
	// 0 never fails. FailEvery=1 is a permanently flaky worker.
	FailEvery int
}

// policyScript is one scripted timeline.
type policyScript struct {
	Workers []policyWorker
	// PollMillis is the idle re-poll cadence; defaults to 50ms.
	PollMillis int64
	// LimitMillis aborts the trace if the service has not drained by
	// then; defaults to 10 minutes of virtual time.
	LimitMillis int64
}

// policyResult summarizes one trace run.
type policyResult struct {
	// MakespanMillis is the virtual time of the last applied completion.
	MakespanMillis int64
	// Applied counts completions the service accepted as fresh.
	Applied int
	// Failed counts executions scripted to fail.
	Failed int
	// Stale counts reports the service rejected as stale or cancelled
	// (e.g. the losing lease of a speculated task).
	Stale int
	// AppliedByWorker is Applied split by worker index.
	AppliedByWorker []int
}

// runPolicy replays script against the env's service and returns the trace
// summary. The trace runs on the discrete-event kernel, so all activity is
// single-threaded and ordered by (virtual time, schedule sequence); the
// service clock is advanced to the kernel's before every interaction, which
// makes lease sweeps and straggler detection a pure function of the script.
// The trace ends when no job is running and every in-flight execution has
// reported; it fails the test at LimitMillis.
func runPolicy(t *testing.T, env *policyEnv, script policyScript, jobIDs ...string) *policyResult {
	t.Helper()
	b := &liveBackend{env: env, jobs: jobIDs}
	poll := script.PollMillis
	if poll <= 0 {
		poll = 50
	}
	limit := script.LimitMillis
	if limit <= 0 {
		limit = 10 * 60 * 1000
	}
	k := sim.NewKernel()
	res := &policyResult{AppliedByWorker: make([]int, len(script.Workers))}
	ids := make([]string, len(script.Workers))
	execs := make([]int, len(script.Workers)) // executions started, for FailEvery
	var traceErr error
	drained := false

	millis := func() int64 { return int64(math.Round(k.Now() * 1000)) }
	// fail records the first error; every pending event then returns
	// without touching the service, so the kernel drains at once.
	fail := func(err error) {
		if traceErr == nil {
			traceErr = err
		}
	}

	var pullLoop func(i int)
	pullLoop = func(i int) {
		if traceErr != nil || drained {
			return
		}
		now := millis()
		b.AdvanceTo(now)
		aid, ok, err := b.Pull(ids[i])
		if err != nil {
			fail(fmt.Errorf("worker %d pull at t=%dms: %w", i, now, err))
			return
		}
		if !ok {
			open, err := b.Open()
			if err != nil {
				fail(err)
				return
			}
			if !open {
				drained = true // this worker observed the drain; all others stop at their next wake
				return
			}
			k.Schedule(float64(poll)/1000, func() { pullLoop(i) })
			return
		}
		execs[i]++
		scripted := script.Workers[i]
		failThis := scripted.FailEvery > 0 && execs[i]%scripted.FailEvery == 0
		k.Schedule(float64(scripted.TaskMillis)/1000, func() {
			if traceErr != nil {
				return
			}
			done := millis()
			b.AdvanceTo(done)
			applied, err := b.Report(ids[i], aid, failThis)
			if err != nil {
				fail(fmt.Errorf("worker %d report at t=%dms: %w", i, done, err))
				return
			}
			switch {
			case failThis:
				res.Failed++
			case applied:
				res.Applied++
				res.AppliedByWorker[i]++
				res.MakespanMillis = done
			default:
				res.Stale++
			}
			pullLoop(i)
		})
	}

	for i := range script.Workers {
		id, err := b.Register(script.Workers[i].Site, script.Workers[i].Tags)
		if err != nil {
			t.Fatalf("worker %d register: %v", i, err)
		}
		ids[i] = id
		idx := i
		k.Schedule(0, func() { pullLoop(idx) })
	}
	k.RunUntil(float64(limit) / 1000)
	if traceErr != nil {
		t.Fatal(traceErr)
	}
	if !drained {
		open, err := b.Open()
		if err != nil {
			t.Fatal(err)
		}
		if open {
			t.Fatalf("trace did not drain within %dms (applied %d)", limit, res.Applied)
		}
	}
	return res
}

// slowWorkerScript is the acceptance scenario: ten single-worker sites,
// nine fast (200ms per task) and one 20x slower — the classic 10%-slow-
// worker heterogeneity from the paper's target environment.
func slowWorkerScript() policyScript {
	ws := make([]policyWorker, 10)
	for i := range ws {
		ws[i] = policyWorker{Site: i, TaskMillis: 200}
	}
	ws[9].TaskMillis = 4000
	return policyScript{Workers: ws, PollMillis: 50}
}

// TestPolicyTraceSpeculationImprovesMakespan is the headline gate: on the
// 10%-slow-worker scenario, enabling straggler speculation must improve
// the deterministic makespan by at least 20% with zero duplicate
// completions — under whichever codec GRIDSCHED_TEST_CODEC put on the
// wire.
func TestPolicyTraceSpeculationImprovesMakespan(t *testing.T) {
	const tasks = 60
	run := func(speculate bool) (*policyResult, *api.JobStatus) {
		env := newPolicyEnv(t, 10, 1, speculate)
		jobID, err := env.cl.SubmitJob(context.Background(), "hetero", "workqueue", 1, syntheticWorkload(tasks, 2))
		if err != nil {
			t.Fatal(err)
		}
		res := runPolicy(t, env, slowWorkerScript(), jobID)
		st, err := env.s.JobStatus(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.JobCompleted || st.Completed != tasks {
			t.Fatalf("speculate=%v: job did not drain cleanly: %+v", speculate, st)
		}
		// Exactly-once: every task completed exactly once, and the counter
		// agrees with the per-job tally.
		if res.Applied != tasks {
			t.Fatalf("speculate=%v: %d applied completions, want %d", speculate, res.Applied, tasks)
		}
		if got := env.s.Counters().Completions.Load(); got != tasks {
			t.Fatalf("speculate=%v: completions counter %d, want %d", speculate, got, tasks)
		}
		return res, st
	}

	off, offSt := run(false)
	on, onSt := run(true)

	if offSt.Speculated != 0 {
		t.Fatalf("speculation off but job speculated %d", offSt.Speculated)
	}
	if onSt.Speculated == 0 {
		t.Fatal("speculation on but no speculative dispatch happened")
	}
	if on.Stale == 0 {
		t.Fatal("speculation on: the losing replica's report never came back cancelled/stale")
	}
	// The gate: at least a 20% makespan improvement, deterministically.
	if on.MakespanMillis*10 > off.MakespanMillis*8 {
		t.Fatalf("speculation makespan %dms vs %dms without — less than 20%% better",
			on.MakespanMillis, off.MakespanMillis)
	}
	t.Logf("makespan: %dms -> %dms (%.0f%% better), %d speculative grants, %d stale",
		off.MakespanMillis, on.MakespanMillis,
		100*(1-float64(on.MakespanMillis)/float64(off.MakespanMillis)),
		onSt.Speculated, on.Stale)
}

// TestPolicyTraceMakespanDeterministic replays the speculation scenario
// twice and demands bit-identical summaries: the harness is only a CI
// gate if it cannot flake.
func TestPolicyTraceMakespanDeterministic(t *testing.T) {
	run := func() *policyResult {
		env := newPolicyEnv(t, 10, 1, true)
		jobID, err := env.cl.SubmitJob(context.Background(), "det", "workqueue", 1, syntheticWorkload(60, 2))
		if err != nil {
			t.Fatal(err)
		}
		return runPolicy(t, env, slowWorkerScript(), jobID)
	}
	a, b := run(), run()
	if a.MakespanMillis != b.MakespanMillis || a.Applied != b.Applied ||
		a.Failed != b.Failed || a.Stale != b.Stale {
		t.Fatalf("two identical traces diverged:\n%+v\n%+v", a, b)
	}
	for i := range a.AppliedByWorker {
		if a.AppliedByWorker[i] != b.AppliedByWorker[i] {
			t.Fatalf("per-worker completions diverged:\n%v\n%v", a.AppliedByWorker, b.AppliedByWorker)
		}
	}
}

// TestPolicyTraceContextGateStarvesFlakyWorker scripts a permanently
// flaky worker under the context-aware wrapper: after MinEvents observed
// failures its failure-rate EWMA pins at 1.0 and the gate must stop
// feeding it — the job drains on the healthy worker alone.
func TestPolicyTraceContextGateStarvesFlakyWorker(t *testing.T) {
	const tasks = 12
	env := newPolicyEnv(t, 2, 1, false)
	jobID, err := env.cl.SubmitJob(context.Background(), "flaky", "context:workqueue", 1, syntheticWorkload(tasks, 2))
	if err != nil {
		t.Fatal(err)
	}
	res := runPolicy(t, env, policyScript{
		Workers: []policyWorker{
			{Site: 0, TaskMillis: 100},
			{Site: 1, TaskMillis: 100, FailEvery: 1}, // every execution fails
		},
		PollMillis: 50,
	}, jobID)

	if res.Applied != tasks {
		t.Fatalf("%d applied completions, want %d", res.Applied, tasks)
	}
	if res.AppliedByWorker[1] != 0 {
		t.Fatalf("flaky worker completed %d tasks", res.AppliedByWorker[1])
	}
	// The gate admits cold workers; the flaky one gets exactly MinEvents
	// (default 4) executions before its record locks it out.
	if res.Failed != 4 {
		t.Fatalf("flaky worker got %d executions, want 4 (the context gate's MinEvents)", res.Failed)
	}
	// The accumulated context is visible on the workers surface.
	for _, ws := range env.s.Workers() {
		if ws.Site == 1 && ws.FailureRate < 0.99 {
			t.Fatalf("flaky worker's failure rate %.2f, want ~1.0", ws.FailureRate)
		}
	}
}

// TestPolicyTraceRequiresTags scripts a job that requires the "gpu"
// capability against one tagged and one untagged worker: every completion
// must land on the tagged worker, even though the untagged one polls too.
func TestPolicyTraceRequiresTags(t *testing.T) {
	const tasks = 10
	env := newPolicyEnv(t, 2, 1, false)
	jobID, err := env.cl.SubmitJobIdempotent(context.Background(), api.SubmitJobRequest{
		Name: "tagged", Algorithm: "workqueue", Seed: 1,
		Workload: syntheticWorkload(tasks, 2),
		Requires: []string{"gpu"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := runPolicy(t, env, policyScript{
		Workers: []policyWorker{
			{Site: 0, TaskMillis: 100, Tags: []string{"gpu", "avx"}},
			{Site: 1, TaskMillis: 100},
		},
		PollMillis: 50,
	}, jobID)

	if res.Applied != tasks || res.AppliedByWorker[0] != tasks {
		t.Fatalf("tag-constrained completions landed wrong: %+v", res)
	}
	st, err := env.s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Requires) != 1 || st.Requires[0] != "gpu" {
		t.Fatalf("requires list did not round-trip: %+v", st.Requires)
	}
}

// TestPolicyTraceDeadlineUrgency submits a fair-share pair where the
// second job carries an already-passed deadline: urgency must win every
// grant until the urgent job drains, where plain fair sharing would
// interleave the two.
func TestPolicyTraceDeadlineUrgency(t *testing.T) {
	env := newPolicyEnv(t, 1, 1, false)
	relaxed, err := env.cl.SubmitJob(context.Background(), "relaxed", "workqueue", 1, syntheticWorkload(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	urgent, err := env.cl.SubmitJobIdempotent(context.Background(), api.SubmitJobRequest{
		Name: "urgent", Algorithm: "workqueue", Seed: 1,
		Workload:       syntheticWorkload(5, 2),
		DeadlineMillis: env.clk.now().UnixMilli() - 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	reg, err := env.cl.RegisterWorker(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp, err := env.cl.Pull(context.Background(), reg.WorkerID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusAssigned {
			t.Fatalf("pull %d: %q", i, resp.Status)
		}
		if resp.Assignment.JobID != urgent {
			t.Fatalf("grant %d went to %s, want the urgent job %s", i, resp.Assignment.JobID, urgent)
		}
		if _, err := env.cl.Report(context.Background(), resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
	st, err := env.s.JobStatus(urgent)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobCompleted {
		t.Fatalf("urgent job after 5 grants: %+v", st)
	}
	if rs, err := env.s.JobStatus(relaxed); err != nil || rs.Completed != 0 {
		t.Fatalf("relaxed job stole a grant from the urgent one: %+v (%v)", rs, err)
	}
}
