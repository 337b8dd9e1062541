package service

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// recSched is a recording fake scheduler: every callback apply makes lands
// in trace, in order. Remaining is tasks minus distinct completions unless
// doneAfter says the fake declares the job done earlier.
type recSched struct {
	trace     []string
	tasks     int
	done      map[workload.TaskID]bool
	doneAfter int // > 0: Remaining() is 0 once this many tasks completed
	victims   []core.WorkerRef
}

func (r *recSched) Name() string        { return "recording" }
func (r *recSched) AttachSite(site int) {}
func (r *recSched) NextFor(core.WorkerRef) (workload.Task, core.Status) {
	panic("apply must never decide")
}
func (r *recSched) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	r.trace = append(r.trace, fmt.Sprintf("note(site %d)", site))
}
func (r *recSched) OnTaskComplete(id workload.TaskID, at core.WorkerRef) []core.WorkerRef {
	r.trace = append(r.trace, fmt.Sprintf("complete(t%d @%d.%d)", id, at.Site, at.Worker))
	r.done[id] = true
	return r.victims
}
func (r *recSched) OnExecutionFailed(id workload.TaskID, at core.WorkerRef) {
	r.trace = append(r.trace, fmt.Sprintf("failed(t%d @%d.%d)", id, at.Site, at.Worker))
}
func (r *recSched) Remaining() int {
	if r.doneAfter > 0 && len(r.done) >= r.doneAfter {
		return 0
	}
	return r.tasks - len(r.done)
}

// applyStep is one event and the callbacks it must cause — exactly those,
// in that order.
type applyStep struct {
	op           uint8
	task         workload.TaskID
	site, worker int32
	want         []string
}

func grant(task workload.TaskID, site, worker int32) applyStep { // scheduler-made
	return applyStep{op: ledgerDispatch, task: task, site: site, worker: worker, want: []string{fmt.Sprintf("note(site %d)", site)}}
}
func twin(task workload.TaskID, site, worker int32) applyStep {
	return applyStep{op: ledgerSpecDispatch, task: task, site: site, worker: worker, want: []string{fmt.Sprintf("note(site %d)", site)}}
}
func end(op uint8, task workload.TaskID, site, worker int32, want ...string) applyStep {
	return applyStep{op: op, task: task, site: site, worker: worker, want: want}
}

// jobCounters is what both roles must agree on after the same events.
type jobCounters struct {
	State                                                         string
	Dispatched, Completed, Failed, Cancelled, Expired, Speculated int
	Open                                                          int
}

func countersOf(j *job) jobCounters {
	c := jobCounters{
		State: j.state, Dispatched: j.dispatched, Completed: j.completed, Failed: j.failed,
		Cancelled: j.cancelled, Expired: j.expired, Speculated: j.speculated,
	}
	for _, x := range j.execs {
		for ; x != nil; x = x.next {
			c.Open++
		}
	}
	return c
}

// standbyState builds a never-started state over topo with no scheduler
// factory, as a Follower does: every job in it stays a shell.
func standbyState(t *testing.T, topo Topology) *Service {
	t.Helper()
	cfg := Config{Topology: topo, NewScheduler: func(string, *workload.Workload, Topology, int64) (core.Scheduler, error) {
		return nil, errors.New("a standby builds no scheduler")
	}}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	cfg.NewScheduler = nil
	return newState(cfg)
}

// newApplyFixture builds a never-started state with one resident job of
// the given size; sched nil leaves it a shell, as on a standby.
func newApplyFixture(t *testing.T, tasks int, sched core.Scheduler) (*Service, *job) {
	t.Helper()
	s := standbyState(t, Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 4})
	w := &workload.Workload{Name: "apply", NumFiles: tasks}
	for i := 0; i < tasks; i++ {
		w.Tasks = append(w.Tasks, workload.Task{ID: workload.TaskID(i), Files: []workload.FileID{workload.FileID(i)}})
	}
	j := s.newJob(&record{Job: "j1", Workload: w, Ts: 1000}, tasks)
	if sched != nil {
		s.attach(j, w, sched)
	}
	s.addJobLocked(j, 0)
	return s, j
}

// TestApplyCallbackTrace drives apply — the one function behind live
// leases, recovery replay and the standby — through event sequences and
// asserts the exact scheduler callbacks each event causes, then that a
// shell with no scheduler reaches identical counters from the same events.
func TestApplyCallbackTrace(t *testing.T) {
	const S, F, X = ledgerSuccess, ledgerFailure, ledgerExpire
	cases := []struct {
		name      string
		tasks     int
		doneAfter int
		victims   []core.WorkerRef
		steps     []applyStep
		want      jobCounters
		// fakeOnly marks a sequence only a lying fake can produce (it ends
		// the job early); a shell, which counts completions, cannot follow.
		fakeOnly bool
	}{
		{
			name: "sibling rule: primary dies first, twin carries the task", tasks: 2,
			steps: []applyStep{
				grant(0, 0, 0), twin(0, 1, 0),
				end(F, 0, 0, 0),                    // the twin lives: no requeue
				end(X, 0, 1, 0, "failed(t0 @0.0)"), // last of the pair, under the PRIMARY's ref
			},
			want: jobCounters{State: api.JobRunning, Dispatched: 2, Failed: 1, Expired: 1, Speculated: 1},
		},
		{
			name: "sibling rule: twin lost, primary re-arms", tasks: 2,
			steps: []applyStep{
				grant(0, 0, 0), twin(0, 1, 0),
				end(X, 0, 1, 0), // the primary lives: no requeue
				twin(0, 1, 1),   // speculated again
				end(F, 0, 1, 1),
				end(F, 0, 0, 0, "failed(t0 @0.0)"),
			},
			want: jobCounters{State: api.JobRunning, Dispatched: 3, Failed: 2, Expired: 1, Speculated: 2},
		},
		{
			name: "a replica is no sibling", tasks: 2,
			steps: []applyStep{
				grant(0, 0, 0), grant(0, 0, 1), // two scheduler-made executions, own refs
				end(F, 0, 0, 0, "failed(t0 @0.0)"),
				end(X, 0, 0, 1, "failed(t0 @0.1)"),
			},
			want: jobCounters{State: api.JobRunning, Dispatched: 2, Failed: 1, Expired: 1},
		},
		{
			name: "first report wins: victims and blanket cancel", tasks: 2,
			victims: []core.WorkerRef{{Site: 0, Worker: 0}},
			steps: []applyStep{
				grant(0, 0, 0), grant(0, 0, 1), twin(0, 1, 0),
				end(S, 0, 0, 1, "complete(t0 @0.1)"),
				end(S, 0, 0, 0), // the scheduler's victim: cancelled, never a second completion
				end(X, 0, 1, 0), // the twin the scheduler never knew: cancelled too
			},
			want: jobCounters{State: api.JobRunning, Dispatched: 3, Completed: 1, Cancelled: 2, Speculated: 1},
		},
		{
			name: "a winning twin completes under the primary's ref", tasks: 2,
			steps: []applyStep{
				grant(0, 0, 0), twin(0, 1, 0),
				end(S, 0, 1, 0, "complete(t0 @0.0)"),
				end(F, 0, 0, 0), // the beaten primary
			},
			want: jobCounters{State: api.JobRunning, Dispatched: 2, Completed: 1, Cancelled: 1, Speculated: 1},
		},
		{
			name: "job completes with replicas in flight", tasks: 2,
			steps: []applyStep{
				grant(0, 0, 0), grant(1, 0, 1), grant(1, 1, 0),
				end(S, 0, 0, 0, "complete(t0 @0.0)"),
				end(S, 1, 0, 1, "complete(t1 @0.1)"), // completes the job, releases the scheduler
				end(S, 1, 1, 0),                      // outlived its job
			},
			want: jobCounters{State: api.JobCompleted, Dispatched: 3, Completed: 2, Cancelled: 1},
		},
		{
			name: "completion cancel-marks everything open", tasks: 2, doneAfter: 1, fakeOnly: true,
			steps: []applyStep{
				grant(0, 0, 0), grant(1, 0, 1),
				end(S, 0, 0, 0, "complete(t0 @0.0)"), // the fake calls the job done here
				end(F, 1, 0, 1),                      // another task's execution: cancelled by the completion
			},
			want: jobCounters{State: api.JobCompleted, Dispatched: 2, Completed: 1, Cancelled: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sched *recSched) jobCounters {
				var attached core.Scheduler // stays a nil interface for a shell
				if sched != nil {
					attached = sched
				} else {
					sched = &recSched{} // its trace must stay empty
				}
				s, j := newApplyFixture(t, tc.tasks, attached)
				for i, st := range tc.steps {
					before := len(sched.trace)
					e := ledgerRec{Op: st.op, Task: st.task, Site: st.site, Worker: st.worker, Ts: int64(2000 + i)}
					if _, err := s.apply(&s.stage, j, e, true); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if got := sched.trace[before:]; attached != nil && !slices.Equal(got, st.want) {
						t.Fatalf("step %d (op %d t%d @%d.%d): callbacks %v, want %v", i, st.op, st.task, st.site, st.worker, got, st.want)
					}
				}
				return countersOf(j)
			}
			fake := &recSched{tasks: tc.tasks, done: map[workload.TaskID]bool{}, doneAfter: tc.doneAfter, victims: tc.victims}
			got := run(fake)
			if got != tc.want {
				t.Fatalf("with scheduler: %+v, want %+v", got, tc.want)
			}
			if tc.fakeOnly {
				return
			}
			if shell := run(nil); shell != got {
				t.Fatalf("scheduler detached: %+v, with scheduler %+v", shell, got)
			}
		})
	}
}

// TestApplyRejectsContradictions: an event that contradicts the table is
// an error and changes nothing — what lets recovery refuse a corrupt
// journal instead of replaying it into nonsense.
func TestApplyRejectsContradictions(t *testing.T) {
	fake := &recSched{tasks: 2, done: map[workload.TaskID]bool{}}
	s, j := newApplyFixture(t, 2, fake)
	apply := func(op uint8, task workload.TaskID, site, worker int32) error {
		_, err := s.apply(&s.stage, j, ledgerRec{Op: op, Task: task, Site: site, Worker: worker, Ts: 1}, true)
		return err
	}
	if err := apply(ledgerDispatch, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := apply(ledgerSpecDispatch, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	before, trace := countersOf(j), len(fake.trace)
	for _, bad := range []struct {
		op           uint8
		task         workload.TaskID
		site, worker int32
		msg          string
	}{
		{ledgerDispatch, 0, 0, 0, "already in flight"},
		{ledgerDispatch, 0, 1, 0, "already in flight"},     // a replica onto the slot running the task's twin
		{ledgerSpecDispatch, 0, 0, 0, "already in flight"}, // a twin onto the primary's own slot
		{ledgerSuccess, 0, 1, 1, "no open execution"},
		{ledgerExpire, 1, 0, 0, "no open execution"},
		{ledgerSpecDispatch, 1, 1, 0, "no live primary"},
		{99, 0, 0, 0, "unknown ledger op"},
	} {
		err := apply(bad.op, bad.task, bad.site, bad.worker)
		if err == nil || !strings.Contains(err.Error(), bad.msg) {
			t.Fatalf("op %d t%d @%d.%d: error %v, want %q", bad.op, bad.task, bad.site, bad.worker, err, bad.msg)
		}
	}
	if got := countersOf(j); got != before || len(fake.trace) != trace {
		t.Fatalf("rejected events changed the job: %+v → %+v, trace %v", before, got, fake.trace[trace:])
	}
}

// scriptSched is a recSched whose NextFor hands out a scripted sequence of
// tasks to whoever asks — including, like a replicating scheduler that
// cannot see a twin, a task the asking slot already runs.
type scriptSched struct {
	recSched
	w      *workload.Workload
	script []workload.TaskID
}

func (r *scriptSched) NextFor(core.WorkerRef) (workload.Task, core.Status) {
	if len(r.script) == 0 {
		return workload.Task{}, core.Wait
	}
	id := r.script[0]
	r.script = r.script[1:]
	return r.w.Tasks[id], core.Assigned
}

// TestTwinSlotIsNotOfferedMore: a streaming worker holds several leases on
// one slot, and a twin is invisible to the scheduler, so a replicating
// scheduler asked on behalf of a slot running task T's twin may well answer
// T — an event no table (and no replay) accepts. The live path must not ask:
// the job offers the slot nothing until the twin's lease ends.
func TestTwinSlotIsNotOfferedMore(t *testing.T) {
	var clock int64 = 1_700_000_000_000
	var sched *scriptSched
	s, err := New(Config{
		Topology:      Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 8},
		LeaseTTL:      time.Hour,
		SweepInterval: time.Hour,
		Speculation:   true,
		Clock:         func() time.Time { return time.UnixMilli(clock) },
		NewScheduler: func(_ string, w *workload.Workload, _ Topology, _ int64) (core.Scheduler, error) {
			sched = &scriptSched{recSched: recSched{tasks: 5, done: map[workload.TaskID]bool{}}, w: w, script: []workload.TaskID{0, 1, 2, 3}}
			return sched, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := &workload.Workload{Name: "twin-slot", NumFiles: 5}
	for i := 0; i < 5; i++ {
		w.Tasks = append(w.Tasks, workload.Task{ID: workload.TaskID(i), Files: []workload.FileID{workload.FileID(i)}})
	}
	if _, err := s.SubmitJob(api.SubmitJobRequest{Name: "twin-slot", Algorithm: "scripted", Workload: w}); err != nil {
		t.Fatal(err)
	}
	register := func(site int) (string, core.WorkerRef) {
		reg, err := s.RegisterWorker(site, nil)
		if err != nil {
			t.Fatal(err)
		}
		return reg.WorkerID, core.WorkerRef{Site: reg.Site, Worker: reg.Worker}
	}
	slow, _ := register(0)
	fast, fastRef := register(1)
	// lease is one iteration of the stream loop's grant scan for fast.
	lease := func() *assignment {
		a, _, _ := s.dispatchOnce(fast, fastRef, nil, s.now())
		if a != nil {
			s.reg.mu.Lock()
			s.reg.workers[fast].assignments[a.id] = a
			s.reg.mu.Unlock()
		}
		return a
	}
	report := func(a *assignment, ms int64) {
		t.Helper()
		clock += ms
		if rep, err := s.Report(a.id, fast, api.OutcomeSuccess); err != nil || !rep.Accepted || rep.Cancelled {
			t.Fatalf("report %s: %+v (err=%v)", a.id, rep, err)
		}
	}

	// slow straggles on task 0 while fast gives the job its duration
	// distribution; the sweep then queues task 0 for a twin.
	if resp, err := s.Pull(nil, slow, 0); err != nil || resp.Assignment == nil || resp.Assignment.Task.ID != 0 {
		t.Fatalf("slow's pull: %+v (err=%v)", resp, err)
	}
	for i := 0; i < 3; i++ {
		report(lease(), 100)
	}
	clock += 1000
	s.sweep(s.now())

	twin := lease()
	if twin == nil || !twin.x.spec || twin.x.task != 0 {
		t.Fatalf("fast's first lease after the sweep is not task 0's twin: %+v", twin)
	}
	// The scheduler would now replicate task 0 onto fast's slot.
	sched.script = []workload.TaskID{0}
	if a := lease(); a != nil {
		t.Fatalf("slot running task 0's twin was granted task %d", a.x.task)
	}
	if len(sched.script) != 1 {
		t.Fatal("the scheduler was consulted for a slot that runs a twin")
	}
	// The twin wins; its lease is gone and the job serves the slot again.
	report(twin, 50)
	sched.script = []workload.TaskID{4}
	if a := lease(); a == nil || a.x.task != 4 || a.x.spec {
		t.Fatalf("after the twin ended: %+v", a)
	}
}

// TestSiteStoresAreBuiltOnFirstCommit: a job is attached to every site and
// holds a store only where a batch has been committed, and the staging a
// late-built store reports is that of a store that stood empty all along.
func TestSiteStoresAreBuiltOnFirstCommit(t *testing.T) {
	fake := &recSched{tasks: 3, done: map[workload.TaskID]bool{}}
	s, j := newApplyFixture(t, 3, fake)
	built := func() (n int) {
		for _, st := range j.stores {
			if st != nil {
				n++
			}
		}
		return n
	}
	if len(j.stores) != 2 || built() != 0 {
		t.Fatalf("after attach: %d of %d stores built, want 0 of 2", built(), len(j.stores))
	}
	for i, step := range []struct {
		task         workload.TaskID
		site         int32
		staged, want int
	}{{0, 1, 1, 1}, {1, 1, 1, 1}, {2, 0, 1, 2}} {
		res, err := s.apply(&s.stage, j, ledgerRec{Op: ledgerDispatch, Task: step.task, Site: step.site, Ts: int64(2000 + i)}, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.staged != step.staged || built() != step.want {
			t.Fatalf("dispatch %d at site %d: staged %d files with %d stores built, want %d and %d",
				i, step.site, res.staged, built(), step.staged, step.want)
		}
	}
	if missing := j.stores[1].AppendMissing(nil, []workload.FileID{0, 1, 2}); len(missing) != 1 || missing[0] != 2 {
		t.Fatalf("site 1 lacks files %v, want only file 2: the 2 others were committed there", missing)
	}
}
