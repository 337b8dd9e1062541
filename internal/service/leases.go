// The worker registry and the lease protocol surface (register,
// deregister, heartbeat, report — a single one is a batch of one), and
// the ends of a lease: report, expiry, and the sweep that finds expired
// leases and registrations. The registry is a leaf lock guarding worker
// registrations, (site, worker) slots, and each worker's outstanding-lease
// set and lease session (session.go); everything lease-state-ful about an
// assignment itself (deadline, the live lease table, and the job-table
// execution it leases) is guarded by the service lock. A report or
// heartbeat therefore takes the registry to resolve the assignment, lets
// go, and takes the service lock to act on it. What a report or an expiry
// does to the job is not decided here: the lease paths journal the event,
// hand it to the job state machine's apply (jobstate.go), and do the
// live-only rest — metrics counters, wakeups, finishLeaseLocked — from
// what apply says happened (endLeaseLocked).
package service

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// registry guards worker registrations and slots.
type registry struct {
	mu      sync.Mutex
	workers map[string]*worker
	slots   [][]string // [site][worker] -> workerID, "" when free
}

func newRegistry(sites, workersPerSite int) *registry {
	r := &registry{
		workers: make(map[string]*worker),
		slots:   make([][]string, sites),
	}
	for i := range r.slots {
		r.slots[i] = make([]string, workersPerSite)
	}
	return r
}

// removeLocked frees the worker's slot and forgets it. Callers hold r.mu.
func (r *registry) removeLocked(w *worker) {
	r.slots[w.ref.Site][w.ref.Worker] = ""
	delete(r.workers, w.id)
}

// Register enrolls a worker with no capability tags. See RegisterWorker.
func (s *Service) Register(site int) (*api.RegisterResponse, error) {
	return s.RegisterWorker(site, nil)
}

// RegisterWorker enrolls a worker into a free (site, worker) slot. site <
// 0 picks the site with the most free slots. tags are the worker's
// capability tags: a job submitted with a requires list dispatches only
// to workers carrying every required tag.
func (s *Service) RegisterWorker(site int, tags []string) (*api.RegisterResponse, error) {
	if s.closed.Load() {
		return nil, errf(http.StatusServiceUnavailable, "service: closed")
	}
	if err := validateTags("tag", tags); err != nil {
		return nil, err
	}
	now := s.now()
	s.maybeSweep(now)
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	target := -1
	if site >= 0 {
		if site >= s.cfg.Sites {
			return nil, errf(http.StatusBadRequest, "service: site %d outside [0,%d)", site, s.cfg.Sites)
		}
		target = site
	} else {
		bestFree := 0
		for si := range r.slots {
			free := 0
			for _, id := range r.slots[si] {
				if id == "" {
					free++
				}
			}
			if free > bestFree {
				bestFree, target = free, si
			}
		}
		if target < 0 {
			return nil, errf(http.StatusServiceUnavailable, "service: all worker slots taken")
		}
	}
	slot := slices.Index(r.slots[target], "")
	if slot < 0 {
		return nil, errf(http.StatusServiceUnavailable, "service: site %d has no free worker slots", target)
	}
	// Worker ids carry the process instance nonce: registrations are not
	// journaled, so a recovered process would otherwise re-mint ids that
	// pre-crash workers still present.
	w := &worker{
		id:          fmt.Sprintf("w%d-%s", s.nextSeq(), s.instance),
		ref:         core.WorkerRef{Site: target, Worker: slot},
		expires:     now.Add(s.cfg.LeaseTTL),
		tags:        slices.Clone(tags),
		assignments: make(map[string]*assignment),
		wake:        make(chan struct{}, 1),
	}
	r.slots[target][slot] = w.id
	r.workers[w.id] = w
	s.tel.setTags(w.ref, tags) // telemetry is a leaf lock; safe under r.mu
	s.noteDeadline(w.expires)
	s.counters.ActiveWorkers.Add(1)
	return &api.RegisterResponse{
		WorkerID:       w.id,
		Site:           w.ref.Site,
		Worker:         w.ref.Worker,
		LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds(),
	}, nil
}

// Deregister removes a worker. An outstanding assignment is requeued
// through the scheduler's failure path.
func (s *Service) Deregister(workerID string) error {
	r := s.reg
	r.mu.Lock()
	w := r.workers[workerID]
	if w == nil {
		r.mu.Unlock()
		return errf(http.StatusNotFound, "service: unknown worker %q", workerID)
	}
	orphans := slices.Collect(maps.Values(w.assignments))
	r.removeLocked(w)
	s.counters.ActiveWorkers.Add(-1)
	r.mu.Unlock()
	s.expireLeases(s.now(), orphans...)
	s.hub.broadcast()
	s.snapshotIfDue()
	return nil
}

// renewLease pushes a held lease's deadline a full TTL forward — the one
// renewal there is, performed for one lease by a heartbeat and for every
// lease a worker holds by its session (session.go) — and says whether the
// lease was still live and whether its execution has been cancelled (a
// replica completed elsewhere).
func (s *Service) renewLease(a *assignment, now time.Time) (live, cancelled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.assignments[a.id] != a {
		return false, false
	}
	a.deadline = now.Add(s.cfg.LeaseTTL)
	return true, a.x.cancelled
}

// Heartbeat renews an assignment's lease, and its worker's registration,
// and reports whether the execution is still wanted.
func (s *Service) Heartbeat(assignmentID, workerID string) (*api.HeartbeatResponse, error) {
	s.counters.Heartbeats.Add(1)
	now := s.now()
	r := s.reg
	r.mu.Lock()
	var a *assignment
	if w := r.workers[workerID]; w != nil {
		if a = w.assignments[assignmentID]; a != nil {
			w.expires = now.Add(s.cfg.LeaseTTL)
		}
	}
	r.mu.Unlock()
	state := api.HeartbeatGone
	if a != nil {
		switch live, cancelled := s.renewLease(a, now); {
		case cancelled:
			state = api.HeartbeatCancelled
		case live:
			state = api.HeartbeatActive
		}
	}
	return &api.HeartbeatResponse{State: state}, nil
}

// Report ends one assignment: a ReportBatch of one.
func (s *Service) Report(assignmentID, workerID, outcome string) (*api.ReportResponse, error) {
	resp, err := s.ReportBatch(workerID, []api.ReportItem{{AssignmentID: assignmentID, Outcome: outcome}})
	if err != nil {
		return nil, err
	}
	return &resp.Results[0], nil
}

// ReportBatch ends up to a stream's worth of assignments (at most
// maxStreamBatch, enforced) in one call. Reports on expired (requeued)
// assignments are rejected as stale; reports on cancelled replicas are
// accepted but counted as cancellations, not completions. The first
// successful completion of a task wins — both properties together guarantee
// no duplicate completions — and a duplicate assignment id within the batch
// is stale just as a second call would be, which is what keeps exactly-once
// accounting intact when a worker retries a whole batch after a dropped
// connection: items that landed the first time come back stale, never
// double-counted. The batch's WAL records go through ONE contiguous
// journal append in item order (consecutive LSNs, one write(2)), and one
// durability wait covers them all, amortizing the fsync that dominates a
// journaled report's cost.
func (s *Service) ReportBatch(workerID string, items []api.ReportItem) (*api.ReportBatchResponse, error) {
	// A worker's outstanding leases are capped at maxStreamBatch, so no
	// honest batch is bigger; an unbounded one would hold s.mu across an
	// arbitrarily large journal append.
	if len(items) > maxStreamBatch {
		return nil, errf(http.StatusBadRequest, "service: batch of %d reports exceeds the %d-item cap", len(items), maxStreamBatch)
	}
	for i := range items {
		if items[i].AssignmentID == "" {
			return nil, errf(http.StatusBadRequest, "service: empty assignment id (report %d)", i)
		}
		if o := items[i].Outcome; o != api.OutcomeSuccess && o != api.OutcomeFailure {
			return nil, errf(http.StatusBadRequest, "service: unknown outcome %q (report %d)", o, i)
		}
	}
	now := s.now()
	results := make([]api.ReportResponse, len(items))
	// The live lease each item names, on the stack so that a batch of one
	// allocates nothing for it; nil once the item is answered stale.
	var buf [maxStreamBatch]*assignment
	live := buf[:len(items)]

	// Resolve every lease in one registry pass (one registration renewal).
	// An unknown worker makes every item stale.
	r := s.reg
	r.mu.Lock()
	if w := r.workers[workerID]; w != nil {
		w.expires = now.Add(s.cfg.LeaseTTL)
		for i := range items {
			live[i] = w.assignments[items[i].AssignmentID]
		}
	}
	r.mu.Unlock()

	s.mu.Lock()
	// Re-validate under the service lock and journal the whole batch with
	// one contiguous append BEFORE applying anything: if the append fails
	// the batch is refused with every lease intact, and the worker's retry
	// (or eventual lease expiry) keeps state and log agreeing. The encoded
	// records sit back to back in recs, with a view of each in payloads.
	var recs []byte
	var payloads [][]byte
	for i, a := range live {
		// A duplicate id resolves for its FIRST occurrence only: a later one
		// is what a second call would be — the lease is gone by then — and
		// applying it twice would double-journal and double-count (and find
		// j.sched nil if the first apply completed the job).
		for k := 0; k < i && a != nil; k++ {
			if live[k] == a {
				a = nil
			}
		}
		if a == nil || s.assignments[a.id] != a {
			s.counters.StaleReports.Add(1)
			results[i].Stale = true
			live[i] = nil
			continue
		}
		if rec, ok := s.leaseRecord(a, opReport, items[i].Outcome, now); ok {
			if recs == nil {
				recs = make([]byte, 0, len(items)*maxLeaseRecordLen)
			}
			n := len(recs)
			recs = rec.appendTo(recs)
			payloads = append(payloads, recs[n:])
		}
	}
	var lsn uint64
	if len(payloads) > 0 {
		first, err := s.appendEncoded(payloads...)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		lsn = first + uint64(len(payloads)) - 1
	}
	wake := false
	for i, a := range live {
		if a == nil {
			continue
		}
		op := ledgerFailure
		if items[i].Outcome == api.OutcomeSuccess {
			op = ledgerSuccess
		}
		s.endLeaseLocked(a, op, now)
		results[i] = api.ReportResponse{Accepted: true, Cancelled: a.x.cancelled, JobState: a.job.state}
		// Parked sessions only care about events that can make new work
		// dispatchable (a failure requeues the task; a freed quota slot
		// unthrottles a tenant — finishLeaseLocked handles that one) or
		// change the open-job count (jobCompleted broadcasts itself). A
		// plain success or a cancelled replica frees no work for anyone
		// else, so the common case does not wake the whole herd just to
		// find nothing.
		wake = wake || op == ledgerFailure && !a.x.cancelled
	}
	// Only now, with the whole batch applied: the first finishLeaseLocked
	// nudges the worker's session, and one that wakes while most of the
	// batch is still held would grant a sliver of a frame.
	for _, a := range live {
		if a != nil {
			s.finishLeaseLocked(a)
		}
	}
	s.mu.Unlock()
	if wake {
		s.hub.broadcast()
	}
	s.snapshotIfDue()
	if err := s.waitDurable(lsn); err != nil {
		return nil, err
	}
	return &api.ReportBatchResponse{Results: results}, nil
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
// journals the event does so first. Callers hold s.mu, have verified the
// lease is live (s.assignments[a.id] == a), and must finishLeaseLocked(a).
func (s *Service) endLeaseLocked(a *assignment, op uint8, now time.Time) {
	delete(s.assignments, a.id)
	j, x := a.job, a.x
	// Residency guard: a cancelled replica's lease can outlive its
	// completed-then-DELETEd job. Its end still counts in memory, but it is
	// not history anyone can replay — no journal record (leaseRecord), so
	// no telemetry fold either: the EWMAs stay a function of the journal.
	res := s.mustApply(j, ledgerRec{
		Op: op, Task: x.task, Site: int32(x.ref.Site), Worker: int32(x.ref.Worker), Ts: now.UnixMilli(),
	}, s.jobs[j.id] == j)
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
// its worker gone — unless it already ended (a concurrent report): unless
// the execution was already cancelled, the task is requeued through the
// scheduler's failure path. The expiry is journaled like every other
// scheduler-affecting event: a later dispatch record of the requeued task
// only replays if the expiry that made it pending replays first. Callers
// hold s.mu.
func (s *Service) expireLeaseLocked(a *assignment, now time.Time) {
	if s.assignments[a.id] != a {
		return
	}
	if rec, ok := s.leaseRecord(a, opExpire, "", now); ok {
		s.mustAppend(&rec)
	}
	s.endLeaseLocked(a, ledgerExpire, now)
	s.finishLeaseLocked(a)
}

// expireLeases expires orphans — leases whose worker deregistered, was
// swept, or opened a stream — that are still live. With none it takes no
// lock, so a worker that holds no lease can deregister from anywhere.
func (s *Service) expireLeases(now time.Time, orphans ...*assignment) {
	if len(orphans) == 0 {
		return
	}
	s.mu.Lock()
	for _, a := range orphans {
		s.expireLeaseLocked(a, now)
	}
	s.mu.Unlock()
}

// leaseRecord builds the WAL record for the end of a lease (opReport with
// its outcome, or opExpire), or false when it must not be journaled. Journal
// only while the job record is resident: a record naming a dropped job id
// would be unreplayable after the next snapshot no longer carries the job
// (recovery would refuse the data dir). Callers hold s.mu.
func (s *Service) leaseRecord(a *assignment, op, outcome string, now time.Time) (record, bool) {
	if s.pst == nil || s.jobs[a.job.id] != a.job {
		return record{}, false
	}
	return record{
		Op: op, Ts: now.UnixMilli(), Job: a.job.id,
		Task: a.x.task, Site: int32(a.x.ref.Site), Worker: int32(a.x.ref.Worker),
		Outcome: outcome,
	}, true
}

// finishLeaseLocked is the single point where a lease ends (report, expiry,
// deregistration) after its removal from the lease table: the tenant's
// in-flight quota capacity returns, the worker's assignment pointer clears,
// and the lease gauge drops. When the tenant was at its quota — parked
// pulls may have skipped its runnable jobs — the freed capacity makes work
// dispatchable again, so this wakes the hub even on a plain success
// report. Callers hold s.mu; the registry and the hub are leaf locks taken
// under it.
func (s *Service) finishLeaseLocked(a *assignment) {
	t := s.arb.tenant(a.job.tenant)
	if q := s.arb.quotaFor(t, s.cfg.TenantMaxInFlight); q > 0 && t.inFlight >= q && t.running > 0 {
		s.hub.broadcast()
	}
	t.inFlight--
	// A lease can be a tenant's last anchor: its job record may have been
	// deleted while this assignment was still in flight (a cancelled
	// replica outliving its completed, then deleted, job).
	s.arb.prune(a.job.tenant)
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

// maybeSweep runs the expiry sweep only when the earliest known deadline
// is due — the request-path entry point, so parked pulls woken by a
// broadcast do not all pay the full sweep.
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

// sweep expires overdue worker registrations and assignment leases, then
// recomputes the next deadline. The registry is swept first (collecting
// the expired workers' orphaned assignments) and let go before the service
// lock is taken for the leases.
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

	s.mu.Lock()
	for _, a := range orphans {
		s.expireLeaseLocked(a, now)
	}
	var stragglers []specStage
	for _, a := range s.assignments {
		if now.After(a.deadline) {
			s.expireLeaseLocked(a, now)
			changed = true
			continue
		}
		lower(a.deadline)
		// Straggler detection: a live primary lease whose age has outrun
		// the job's observed duration distribution gets queued for a
		// speculative twin. Staged first, queued after, sorted — the
		// assignment-map iteration order must never leak into the queue
		// order (determinism).
		if x := a.x; s.cfg.Speculation && !x.cancelled && !x.spec && x.granted > 0 {
			j := a.job
			if s.jobs[j.id] == j && j.state == api.JobRunning && !j.specMarked[x.task] &&
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
	// duration × remaining waves over the live worker pool, and boost it
	// when the projection misses the deadline. Cold start (no duration
	// samples) boosts only once the deadline itself passed.
	deadlines := false
	for _, j := range s.jobs {
		if j.state != api.JobRunning || j.deadlineMs == 0 {
			continue
		}
		deadlines = true
		urgent := now.UnixMilli() >= j.deadlineMs
		if !urgent && j.sched != nil {
			if mean, ok := j.durs.mean(); ok {
				workers := max(s.counters.ActiveWorkers.Load(), 1)
				waves := (int64(j.sched.Remaining()) + workers - 1) / workers
				urgent = now.UnixMilli()+mean*waves >= j.deadlineMs
			}
		}
		j.urgent = urgent
	}
	s.mu.Unlock()

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
