// The job state machine. The paper's worker-centric strategies reduce to
// one per-task machine — a worker asks, a task is granted (possibly as a
// replica), the first completion wins and every other execution is
// cancelled — and this file is its only implementation. A job's
// replicated state (counters, lifecycle state, the table of open
// executions, the packed ledger) changes through exactly one function,
// apply, which takes one ledger event (dispatch | specDispatch | success |
// failure | expire). The three roles differ only in where the event comes
// from and what they do with the result:
//
//   - live (dispatch.go, leases.go): decide (NextFor, or a
//     straggler's task for a twin) → journal → apply → live-only effects
//     (metrics counters, hub broadcast, lease bookkeeping);
//   - recovery (recovery.go): decode → ReplayAssign in place of NextFor →
//     apply;
//   - standby (follower.go): the same replay over job shells that have no
//     scheduler attached.
//
// Scheduler and site stores are optional attachments of a job. With them,
// apply stages files and drives the scheduler's callbacks; without them —
// a standby's shell, or any completed job — it performs the same counter
// and state transitions and nothing else. Recovery identity therefore
// holds by construction: replay does not mirror the live mutation, it is
// the live mutation.
package service

import (
	"fmt"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// exec is one open execution of a task: an entry in its job's table from
// the dispatch event that opened it to the report or expiry that closes
// it. At most one exists per (task, worker slot) — a slot runs a task at
// most once at a time. Guarded by the service lock.
type exec struct {
	task workload.TaskID
	ref  core.WorkerRef
	// schedRef is the worker ref the scheduler associates with this
	// execution: its own ref for a scheduler-made grant, the PRIMARY's ref
	// for a speculative twin. Every scheduler callback uses schedRef, never
	// ref — the scheduler knows one execution per (task, ref) and a twin is
	// invisible to it.
	schedRef core.WorkerRef
	// spec marks a straggler twin granted above the scheduler.
	spec bool
	// cancelled marks an execution obsoleted by another's completion (or
	// by its job's): its report or expiry only counts, and never reaches
	// the scheduler.
	cancelled bool
	// granted is the dispatch event's timestamp (unix millis; 0 in ledgers
	// older than timestamps). A success report's timestamp minus granted is
	// the duration sample folded into worker telemetry, which keeps the
	// telemetry a pure function of the event stream.
	granted int64
	next    *exec // the task's next open execution
}

// find returns the task's open execution at ref, nil when there is none.
func (j *job) find(task workload.TaskID, ref core.WorkerRef) *exec {
	for x := j.execs[task]; x != nil; x = x.next {
		if x.ref == ref {
			return x
		}
	}
	return nil
}

// take removes and returns the task's open execution at ref.
func (j *job) take(task workload.TaskID, ref core.WorkerRef) *exec {
	var prev *exec
	for x := j.execs[task]; x != nil; prev, x = x, x.next {
		if x.ref != ref {
			continue
		}
		switch {
		case prev != nil:
			prev.next = x.next
		case x.next != nil:
			j.execs[task] = x.next
		default:
			delete(j.execs, task)
		}
		x.next = nil
		return x
	}
	return nil
}

// primary is the execution a speculative twin of the task shadows: among
// the task's live scheduler-made executions, the one at the lowest (site,
// worker) — a rule, not a map order, so the grant and its replay pick the
// same one. Nil when the task has none left.
func (j *job) primary(task workload.TaskID) *exec {
	var p *exec
	for x := j.execs[task]; x != nil; x = x.next {
		if x.spec || x.cancelled {
			continue
		}
		if p == nil || x.ref.Site < p.ref.Site || (x.ref.Site == p.ref.Site && x.ref.Worker < p.ref.Worker) {
			p = x
		}
	}
	return p
}

// twinAt reports whether the slot at ref holds a speculative twin of one
// of the job's tasks. The scheduler cannot see a twin — it answers under
// its primary's ref — so nothing stops a replicating scheduler from handing
// the same slot the same task again, and a slot runs a task at most once at
// a time. The live dispatch path therefore does not consult the scheduler
// for a slot while this holds (tryJobLocked).
func (j *job) twinAt(ref core.WorkerRef) bool {
	if j.twins == 0 {
		return false
	}
	for _, x := range j.execs {
		for ; x != nil; x = x.next {
			if x.spec && x.ref == ref {
				return true
			}
		}
	}
	return false
}

// siblingLives reports whether x — already taken out of the table — was
// one half of a primary/twin pair whose other half still runs: another
// live execution of the task shares its schedRef. Scheduler-made replicas
// carry their own refs and are never siblings.
func (j *job) siblingLives(x *exec) bool {
	for o := j.execs[x.task]; o != nil; o = o.next {
		if !o.cancelled && o.schedRef == x.schedRef {
			return true
		}
	}
	return false
}

// remaining is the number of tasks not yet completed: the scheduler's
// count while one is attached, tasks − completions on a shell (first
// report wins, so completions are distinct tasks).
func (j *job) remaining() int {
	switch {
	case j.sched != nil:
		return j.sched.Remaining()
	case j.state == api.JobRunning:
		return j.tasks - j.completed
	}
	return 0
}

// newJob builds a running job's shell from its submit record — the job's
// definition in every role: the live submit path writes the record and
// builds from it, recovery and the standby read it back, and a checkpoint
// entry is reshaped into one (restoreShell). tasks is the workload's size,
// which a checkpointed completed job remembers without its workload.
func (s *Service) newJob(rec *record, tasks int) *job {
	return &job{
		id:           rec.Job,
		name:         rec.Name,
		algorithm:    rec.Algorithm,
		seed:         rec.Seed,
		submissionID: rec.Submission,
		tenant:       rec.Tenant,
		weight:       normalizeWeight(rec.Weight),
		seq:          idNum(rec.Job),
		heapIdx:      -1,
		tasks:        tasks,
		state:        api.JobRunning,
		requires:     rec.Requires,
		deadlineMs:   rec.Deadline,
		submitted:    time.UnixMilli(rec.Ts),
	}
}

// addJobLocked makes j resident: in the job table, in the submission
// index, anchored on its tenant and — while it runs — admitted to the
// arbiter with tag fair. The tenant record is anchored here, at
// materialization, so a later delete (dropJobLocked, which decrements)
// always runs against a count that included the job. Callers hold s.mu;
// recovery calls this from its serial steps alone (a checkpoint's shells
// in manifest order, the tail's submits in LSN order) — the arbiter's
// heap, the submission index and the job table are shared, so a restore
// goroutine never gets here.
func (s *Service) addJobLocked(j *job, fair uint64) {
	if j.state == api.JobRunning {
		s.arb.admit(j, fair)
		// Already past deadline: urgent from the start; the sweeper keeps
		// the flag current from here on.
		j.urgent = j.deadlineMs > 0 && s.now().UnixMilli() >= j.deadlineMs
	}
	s.arb.tenant(j.tenant).records++
	if j.submissionID != "" {
		s.submissions[j.submissionID] = j.id
	}
	s.jobs[j.id] = j
}

// dropJobLocked removes a job record; with journaling the job's totals are
// folded into the snapshot carry so the global counters stay exact.
// Dropping a tenant's last anchor also retires the tenant. Callers hold
// s.mu.
func (s *Service) dropJobLocked(j *job) {
	delete(s.jobs, j.id)
	if j.submissionID != "" {
		delete(s.submissions, j.submissionID)
	}
	if t := s.arb.tenants[j.tenant]; t != nil {
		t.records--
	}
	s.arb.prune(j.tenant)
	if s.pst != nil {
		s.pst.carry.Jobs++
		s.pst.carry.CompletedJobs++
		s.pst.carry.Dispatched += int64(j.dispatched)
		s.pst.carry.Completions += int64(j.completed)
		s.pst.carry.Failures += int64(j.failed)
		s.pst.carry.Cancellations += int64(j.cancelled)
		s.pst.carry.Expired += int64(j.expired)
		s.pst.carry.Speculated += int64(j.speculated)
	}
}

// attach gives a job its workload and scheduler, and a place for each
// site's store. The scheduler must be fresh.
func (s *Service) attach(j *job, w *workload.Workload, sched core.Scheduler) {
	j.w, j.sched = w, sched
	j.stores = make([]*storage.Store, s.cfg.Sites)
	for i := range j.stores {
		sched.AttachSite(i)
	}
}

// storeAt returns the job's store at site, building it when the first batch
// is committed there — a live grant, a replayed or folded dispatch alike: a
// job is attached to every site and mostly runs at two or three, and a
// store's per-file arrays are sized for the whole workload. A site nothing
// was committed at has the state of an empty store.
func (s *Service) storeAt(j *job, site int) (*storage.Store, error) {
	if st := j.stores[site]; st != nil {
		return st, nil
	}
	st, err := storage.New(s.cfg.CapacityFiles, s.cfg.Policy)
	if err != nil {
		return nil, err
	}
	st.Reserve(j.w.NumFiles)
	j.stores[site] = st
	return st, nil
}

// staging is the scratch one apply stages a dispatch's files through:
// CommitBatchInto fills the two lists and NoteBatch consumes them before
// apply returns, so one pair serves any number of applies that cannot
// overlap — the live service's under s.mu, a restore goroutine's in turn.
type staging struct {
	fetchBuf, evictBuf []workload.FileID
}

// mustApply is apply on the live paths, where the event was just decided
// against this very table: an error is a broken invariant, not bad input.
// Callers hold s.mu.
func (s *Service) mustApply(j *job, e ledgerRec, fresh bool) applied {
	res, err := s.apply(&s.stage, j, e, fresh)
	if err != nil {
		panic(fmt.Sprintf("service: job %s: %v", j.id, err))
	}
	return res
}

// applied is what one event did, for the caller's role-specific effects.
type applied struct {
	// x is the execution the event opened (dispatch) or closed (report,
	// expiry). A closed x.cancelled says the event only counted as a
	// cancellation.
	x *exec
	// staged is how many files a dispatch fetched into the site store.
	staged int
	// completed says the event finished the job.
	completed bool
}

// apply applies one ledger event to j — the only code that stages files,
// calls OnTaskComplete and OnExecutionFailed, cancel-marks losers,
// completes the job, appends the ledger and folds worker telemetry.
//
// fresh says the event is entering history now (a live event on a
// resident job, a journal-tail record, a recovery-forced expiry): it is
// appended to the running job's ledger when the service journals, and its
// outcome folds into worker telemetry. Events replayed from a checkpoint's
// ledger are not fresh — the ledger already holds them and the
// checkpoint's telemetry already summarises them.
//
// An error means the event contradicts the table (it names no open
// execution, or an execution already open): corruption on replay, a broken
// invariant live. Nothing was changed. Callers own j — live, by holding
// s.mu, and they pass s.stage as st; in recovery, by being the only
// goroutine that has the job — and a dispatch's scheduler decision (NextFor
// or ReplayAssign) is already made.
func (s *Service) apply(st *staging, j *job, e ledgerRec, fresh bool) (applied, error) {
	var res applied
	ref := core.WorkerRef{Site: int(e.Site), Worker: int(e.Worker)}
	running := j.state == api.JobRunning
	switch e.Op {
	case ledgerDispatch, ledgerSpecDispatch:
		if !running {
			return res, fmt.Errorf("dispatch of task %d into %s job", e.Task, j.state)
		}
		if j.find(e.Task, ref) != nil {
			return res, fmt.Errorf("task %d already in flight at %+v", e.Task, ref)
		}
		x := &exec{task: e.Task, ref: ref, schedRef: ref, granted: e.Ts}
		if e.Op == ledgerSpecDispatch {
			p := j.primary(e.Task)
			if p == nil {
				return res, fmt.Errorf("speculative dispatch of task %d with no live primary", e.Task)
			}
			x.spec, x.schedRef = true, p.schedRef
		}
		if j.sched != nil {
			files := j.w.Tasks[e.Task].Files
			store, err := s.storeAt(j, ref.Site)
			if err != nil {
				return res, fmt.Errorf("store of site %d: %w", ref.Site, err)
			}
			fetched, evicted, err := store.CommitBatchInto(files, st.fetchBuf[:0], st.evictBuf[:0])
			if err != nil {
				// Submission validated capacity >= the largest task.
				return res, fmt.Errorf("stage task %d at site %d: %w", e.Task, ref.Site, err)
			}
			st.fetchBuf, st.evictBuf = fetched[:0], evicted[:0]
			j.sched.NoteBatch(ref.Site, files, fetched, evicted)
			j.transfers += int64(len(fetched))
			res.staged = len(fetched)
		}
		j.dispatched++
		if x.spec {
			j.speculated++
			j.twins++
		}
		if j.execs == nil {
			j.execs = make(map[workload.TaskID]*exec)
		}
		x.next = j.execs[e.Task]
		j.execs[e.Task] = x
		res.x = x

	case ledgerSuccess, ledgerFailure, ledgerExpire:
		x := j.take(e.Task, ref)
		if x == nil {
			if running {
				return res, fmt.Errorf("ledger op %d on task %d at %+v with no open execution", e.Op, e.Task, ref)
			}
			// A completed job a checkpoint summarised has lost its table;
			// what still arrives for it is the end of a replica its
			// completion cancelled.
			x = &exec{task: e.Task, ref: ref, schedRef: ref, cancelled: true}
		}
		res.x = x
		if x.spec {
			j.twins--
		}
		if fresh {
			// Telemetry folds by outcome alone, cancelled or not: the journal
			// record carries no cancelled bit, and every role must fold alike.
			if e.Op == ledgerSuccess {
				s.tel.observeSuccess(ref, e.Ts-x.granted, x.granted > 0)
			} else {
				s.tel.observeFailure(ref)
			}
		}
		switch {
		case x.cancelled:
			j.cancelled++
			if !running && len(j.execs) == 0 {
				j.execs = nil // a completed job's last straggler reported in
			}
		case e.Op == ledgerSuccess:
			j.completed++
			if j.sched != nil {
				// The victims it returns are open executions of this task;
				// the blanket cancel below covers them.
				j.sched.OnTaskComplete(e.Task, x.schedRef)
			}
			// First report wins: every other open execution of the task is
			// obsolete — the scheduler's own replicas, a speculative twin,
			// or the straggling primary a winning twin just beat. Their
			// reports come back cancelled, never as a second completion.
			for o := j.execs[e.Task]; o != nil; o = o.next {
				o.cancelled = true
			}
			if j.remaining() == 0 {
				s.completeJob(j, e.Ts)
				res.completed = true
			}
		default:
			if e.Op == ledgerFailure {
				j.failed++
			} else {
				j.expired++
			}
			// Sibling rule: while the other half of a primary/twin pair
			// still runs, the scheduler's one known execution of the task is
			// alive and must not be requeued — only when the LAST of the
			// pair dies does the task go back. It is also what keeps
			// deregistering a worker sound mid-speculation.
			if j.sched != nil && !j.siblingLives(x) {
				j.sched.OnExecutionFailed(e.Task, x.schedRef)
			}
		}

	default:
		return res, fmt.Errorf("unknown ledger op %d", e.Op)
	}
	// Completion released the ledger; a job that was not running had none.
	if fresh && s.pst != nil && j.state == api.JobRunning {
		j.ledger = j.ledger.add(e)
	}
	return res, nil
}

// completeJob moves a running job to completed and releases its heavy
// state, cancel-marking every execution still open first. The marking is
// what makes releasing the scheduler safe against late reports and
// expiries: a cancelled execution only ever counts. The job also leaves
// the arbiter's runnable set. Callers hold s.mu, or are recovery's serial
// steps.
func (s *Service) completeJob(j *job, tsMillis int64) {
	j.state = api.JobCompleted
	j.finished = time.UnixMilli(tsMillis)
	for _, x := range j.execs {
		for ; x != nil; x = x.next {
			x.cancelled = true
		}
	}
	if len(j.execs) == 0 {
		j.execs = nil
	}
	j.w, j.sched, j.stores, j.ledger = nil, nil, nil, nil
	s.arb.retire(j)
}
