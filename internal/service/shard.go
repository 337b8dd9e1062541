// Job-state shards. Every job is owned by exactly one lock stripe,
// selected by the numeric part of its id, and everything mutable about the
// job — scheduler, site stores, replay ledger, per-job counters, the table
// of open executions, and the assignment leases granted on them — is
// guarded by that stripe's mutex.
// Submits, reports, heartbeats, and lease expiries on different jobs
// therefore never contend; only the brief which-job decision (dispatch.go)
// and the WAL total order (the journal writer) are shared.
//
// Lock ordering (see the package comment): a shard may acquire the
// coordinator or the registry while held; nothing acquires a shard while
// holding either, and no path holds two shards (lockAll, the
// stop-the-world snapshot path, is the exception and takes them in index
// order).
package service

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// shard is one lock stripe of job state.
type shard struct {
	mu   sync.Mutex
	jobs map[string]*job
	// assignments holds every live lease granted from this shard's jobs,
	// keyed by assignment id. (An assignment lives on its job's shard, not
	// on a shard derived from its own id.)
	assignments map[string]*assignment
	// stage is the staging scratch of every apply on this stripe's jobs
	// once the service is live (guarded by mu).
	stage staging
}

// staging is the scratch one apply stages a dispatch's files through:
// CommitBatchInto fills the two lists and NoteBatch consumes them before
// apply returns, so one pair serves any number of applies that cannot
// overlap — a stripe's under its mutex, a restore goroutine's in turn.
type staging struct {
	fetchBuf, evictBuf []workload.FileID
}

func newShard() *shard {
	return &shard{
		jobs:        make(map[string]*job),
		assignments: make(map[string]*assignment),
	}
}

// shardOf routes a job id to its owning stripe. Sequentially minted ids
// round-robin across stripes, so concurrent jobs spread evenly. The
// mapping is a placement detail only: it never influences scheduling or
// the journal, so a data dir recovers correctly under any stripe count.
func (s *Service) shardOf(jobID string) *shard {
	return s.shards[int(idNum(jobID)%int64(len(s.shards)))]
}

// lockAll acquires every shard in index order plus the coordinator — the
// stop-the-world entry for snapshots. With all stripes held no append
// path can run (each holds a shard or the coordinator), so the journal
// position is frozen too.
func (s *Service) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	s.coord.mu.Lock()
}

func (s *Service) unlockAll() {
	s.coord.mu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// mustApply is apply on the live paths, where the event was just decided
// against this very table: an error is a broken invariant, not bad input.
func (s *Service) mustApply(sh *shard, j *job, e ledgerRec, fresh bool) applied {
	res, err := s.apply(&sh.stage, j, e, fresh)
	if err != nil {
		panic(fmt.Sprintf("service: job %s: %v", j.id, err))
	}
	return res
}

// jobCompleted is the live side of a job's completion: the gauges move and
// every parked session wakes (the open-job count changed).
func (s *Service) jobCompleted() {
	s.counters.JobsCompleted.Add(1)
	s.counters.OpenJobs.Add(-1)
	s.hub.broadcast()
}

// endLeaseLocked ends a live lease with a report (ledgerSuccess,
// ledgerFailure) or without one (ledgerExpire): the event is applied to
// the job and the live-only effects follow from what it did. Whoever
// journals the event does so first. Callers hold sh.mu, have verified the
// lease is live (sh.assignments[a.id] == a), and must finishLease(a).
func (s *Service) endLeaseLocked(sh *shard, a *assignment, op uint8, now time.Time) {
	delete(sh.assignments, a.id)
	j, x := a.job, a.x
	// Residency guard: a cancelled replica's lease can outlive its
	// completed-then-DELETEd job. Its end still counts in memory, but it is
	// not history anyone can replay — no journal record (leaseRecord), so
	// no telemetry fold either: the EWMAs stay a function of the journal.
	res := s.mustApply(sh, j, ledgerRec{
		Op: op, Task: x.task, Site: int32(x.ref.Site), Worker: int32(x.ref.Worker), Ts: now.UnixMilli(),
	}, sh.jobs[j.id] == j)
	switch {
	case x.cancelled:
		s.counters.Cancellations.Add(1)
	case op == ledgerSuccess:
		if x.granted > 0 {
			j.durs.add(now.UnixMilli() - x.granted)
		}
		delete(j.specMarked, x.task)
		s.counters.Completions.Add(1)
	case op == ledgerFailure:
		s.counters.Failures.Add(1)
	default:
		s.counters.LeasesExpired.Add(1)
	}
	if x.spec {
		// The twin ended (whichever way): the task may be speculated again
		// if a remaining lease straggles too.
		delete(j.specMarked, x.task)
		if op == ledgerSuccess && !x.cancelled {
			s.counters.SpeculationWins.Add(1)
		} else {
			s.counters.SpeculationLosses.Add(1)
		}
	}
	if res.completed {
		s.jobCompleted()
	}
}

// expireLeaseLocked ends a lease without a report — past its deadline, or
// its worker gone: unless the execution was already cancelled, the task is
// requeued through the scheduler's failure path. The expiry is journaled
// like every other scheduler-affecting event: a later dispatch record of
// the requeued task only replays if the expiry that made it pending
// replays first. Callers hold sh.mu and have verified the lease is live.
func (s *Service) expireLeaseLocked(sh *shard, a *assignment, now time.Time) {
	if rec, ok := s.leaseRecord(sh, a, opExpire, "", now); ok {
		s.mustAppend(&rec)
	}
	s.endLeaseLocked(sh, a, ledgerExpire, now)
	s.finishLease(a)
}

// expireLease expires a — an orphan whose worker deregistered, was swept,
// or opened a stream — unless a concurrent report already ended it.
func (s *Service) expireLease(a *assignment, now time.Time) {
	sh := s.shardOf(a.job.id)
	sh.mu.Lock()
	if sh.assignments[a.id] == a {
		s.expireLeaseLocked(sh, a, now)
	}
	sh.mu.Unlock()
}

// leaseRecord builds the WAL record for the end of a lease (opReport with
// its outcome, or opExpire), or false when it must not be journaled. Journal
// only while the job record is resident: a record naming a dropped job id
// would be unreplayable after the next snapshot no longer carries the job
// (recovery would refuse the data dir). Callers hold sh.mu.
func (s *Service) leaseRecord(sh *shard, a *assignment, op, outcome string, now time.Time) (record, bool) {
	if s.pst == nil || sh.jobs[a.job.id] != a.job {
		return record{}, false
	}
	return record{
		Op: op, Ts: now.UnixMilli(), Job: a.job.id,
		Task: a.x.task, Site: int32(a.x.ref.Site), Worker: int32(a.x.ref.Worker),
		Outcome: outcome,
	}, true
}

// finishLease is the single point where a lease ends (report, expiry,
// deregistration) after its shard-side removal: the tenant's in-flight
// quota capacity returns, the worker's assignment pointer clears, and the
// lease gauge drops. When the tenant was at its quota — parked pulls may
// have skipped its runnable jobs — the freed capacity makes work
// dispatchable again, so this wakes the hub even on a plain success
// report. May run with the assignment's shard held (shard ≺ coordinator,
// shard ≺ registry); the two leaf locks are taken one after the other,
// never nested.
func (s *Service) finishLease(a *assignment) {
	c := s.coord
	wake := false
	c.mu.Lock()
	t := c.tenant(a.job.tenant)
	if q := c.quotaFor(t, s.cfg.TenantMaxInFlight); q > 0 && t.inFlight+t.reserved >= q && t.running > 0 {
		wake = true
	}
	t.inFlight--
	// A lease can be a tenant's last anchor: its job record may have been
	// deleted while this assignment was still in flight (a cancelled
	// replica outliving its completed, then deleted, job).
	c.prune(a.job.tenant)
	c.mu.Unlock()
	if wake {
		s.hub.broadcast()
	}
	s.reg.mu.Lock()
	if w := s.reg.workers[a.workerID]; w != nil && w.assignments[a.id] == a {
		delete(w.assignments, a.id)
		// The worker has a free place again (targeted — no herd broadcast for
		// this).
		w.nudge()
	}
	s.reg.mu.Unlock()
	s.counters.ActiveLeases.Add(-1)
}

// dropJobLocked removes a job record; with journaling the job's totals are
// folded into the snapshot carry so the global counters stay exact.
// Dropping a tenant's last anchor also retires the tenant. Callers hold
// sh.mu.
func (s *Service) dropJobLocked(sh *shard, j *job) {
	delete(sh.jobs, j.id)
	c := s.coord
	c.mu.Lock()
	if j.submissionID != "" {
		delete(c.submissions, j.submissionID)
	}
	if t := c.tenants[j.tenant]; t != nil {
		t.records--
	}
	c.prune(j.tenant)
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
	c.mu.Unlock()
}

// maybeSweep runs the cross-shard expiry sweep only when the earliest
// known deadline is due — the request-path entry point, so parked pulls
// woken by a broadcast do not all pay the full sweep.
func (s *Service) maybeSweep(now time.Time) {
	if ns := s.nextSweep.Load(); ns != 0 && now.UnixNano() < ns {
		return
	}
	s.sweep(now)
}

// noteDeadline lowers nextSweep to cover a newly created deadline.
func (s *Service) noteDeadline(t time.Time) {
	n := t.UnixNano()
	for {
		cur := s.nextSweep.Load()
		if cur != 0 && cur <= n {
			return
		}
		if s.nextSweep.CompareAndSwap(cur, n) {
			return
		}
	}
}

// specStage is one straggling (job, task) found by a sweep, staged so the
// enqueue order can be sorted before it becomes visible.
type specStage struct {
	j    *job
	task workload.TaskID
}

// sweep expires overdue worker registrations and assignment leases across
// the registry and every shard, then recomputes the next deadline. Locks
// are taken one domain at a time — registry first (collecting the expired
// workers' orphaned assignments), then each shard in turn — so a sweep
// never stalls dispatch on more than the stripe it is currently visiting.
func (s *Service) sweep(now time.Time) {
	changed := false
	var next time.Time
	lower := func(t time.Time) {
		if next.IsZero() || t.Before(next) {
			next = t
		}
	}

	var orphans []*assignment
	s.reg.mu.Lock()
	for _, w := range s.reg.workers {
		// An attached worker's session renews its registration every turn;
		// skip it rather than yank the slot from under its own dispatch. (A
		// session stalled past the registration is picked up by the periodic
		// sweep after it detaches; its stale deadline must not pin nextSweep
		// in the past.)
		expired := now.After(w.expires)
		if !expired {
			lower(w.expires)
		}
		if !expired || w.attached != "" {
			continue
		}
		orphans = slices.AppendSeq(orphans, maps.Values(w.assignments))
		s.reg.removeLocked(w)
		s.counters.ActiveWorkers.Add(-1)
		s.counters.WorkersExpired.Add(1)
		changed = true
	}
	s.reg.mu.Unlock()
	for _, a := range orphans {
		s.expireLease(a, now)
	}

	deadlines := false
	for _, sh := range s.shards {
		sh.mu.Lock()
		var stragglers []specStage
		for _, a := range sh.assignments {
			if now.After(a.deadline) {
				s.expireLeaseLocked(sh, a, now)
				changed = true
				continue
			}
			lower(a.deadline)
			// Straggler detection: a live primary lease whose age has
			// outrun the job's observed duration distribution gets queued
			// for a speculative twin. Staged first, queued after, sorted —
			// the assignment-map iteration order must never leak into the
			// queue order (determinism).
			if x := a.x; s.cfg.Speculation && !x.cancelled && !x.spec && x.granted > 0 {
				j := a.job
				if sh.jobs[j.id] == j && j.state == api.JobRunning && !j.specMarked[x.task] &&
					shouldSpeculate(now.UnixMilli()-x.granted, &j.durs,
						speculationPercentile, speculationFactor, speculationMinSamples) {
					stragglers = append(stragglers, specStage{j: j, task: x.task})
				}
			}
		}
		sort.Slice(stragglers, func(i, k int) bool {
			if stragglers[i].j.seq != stragglers[k].j.seq {
				return stragglers[i].j.seq < stragglers[k].j.seq
			}
			return stragglers[i].task < stragglers[k].task
		})
		for _, st := range stragglers {
			if st.j.specMarked[st.task] {
				continue // two replicas of one task both straggled; queue once
			}
			if st.j.specMarked == nil {
				st.j.specMarked = make(map[workload.TaskID]bool)
			}
			st.j.specMarked[st.task] = true
			st.j.specPending = append(st.j.specPending, st.task)
			changed = true // wake parked pulls: there is twin work to hand out
		}
		// Deadline urgency: project the job's finish as now + mean task
		// duration × remaining waves over the live worker pool, and boost
		// it when the projection misses the deadline. Cold start (no
		// duration samples) boosts only once the deadline itself passed.
		for _, j := range sh.jobs {
			if j.state != api.JobRunning || j.deadlineMs == 0 {
				continue
			}
			deadlines = true
			urgent := now.UnixMilli() >= j.deadlineMs
			if !urgent && j.sched != nil {
				if mean, ok := j.durs.mean(); ok {
					workers := s.counters.ActiveWorkers.Load()
					if workers < 1 {
						workers = 1
					}
					waves := (int64(j.sched.Remaining()) + workers - 1) / workers
					urgent = now.UnixMilli()+mean*waves >= j.deadlineMs
				}
			}
			j.urgent.Store(urgent)
		}
		sh.mu.Unlock()
	}

	if next.IsZero() {
		next = now.Add(s.cfg.SweepInterval)
	}
	if s.cfg.Speculation || deadlines {
		// Straggler detection and urgency are time-driven even when no
		// lease is near expiry; a far-future lease deadline must not defer
		// the next look past one sweep interval.
		if capAt := now.Add(s.cfg.SweepInterval); capAt.Before(next) {
			next = capAt
		}
	}
	s.nextSweep.Store(next.UnixNano())
	if changed {
		s.hub.broadcast()
	}
	s.snapshotIfDue()
}
