// The worker registry and the lease protocol surface (register,
// deregister, heartbeat, report — single and batched). The registry is a
// leaf lock guarding worker registrations, (site, worker) slots, and each
// worker's outstanding-lease set; everything lease-state-ful about an
// assignment itself (deadline, cancellation, the live lease table) lives
// on the owning job's shard. A report or heartbeat therefore touches two
// locks back to back — registry to resolve the assignment, shard to act
// on it — and never blocks traffic for unrelated jobs.
package service

import (
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
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
	slot := -1
	for wi, id := range r.slots[target] {
		if id == "" {
			slot = wi
			break
		}
	}
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
	orphans := make([]*assignment, 0, len(w.assignments))
	for _, a := range w.assignments {
		orphans = append(orphans, a)
	}
	r.removeLocked(w)
	s.counters.ActiveWorkers.Add(-1)
	r.mu.Unlock()
	now := s.now()
	for _, a := range orphans {
		sh := s.shardOf(a.job.id)
		sh.mu.Lock()
		if sh.assignments[a.id] == a {
			s.expireAssignmentLocked(sh, a, now)
		}
		sh.mu.Unlock()
	}
	s.hub.broadcast()
	s.snapshotIfDue()
	return nil
}

// lookupLease resolves (assignmentID, workerID) to the worker's live
// assignment, renewing the worker's registration lease on the way. nil
// means the pair names no live lease — the stale/gone outcome.
func (s *Service) lookupLease(assignmentID, workerID string, now time.Time) *assignment {
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[workerID]
	if w == nil {
		return nil
	}
	a := w.assignments[assignmentID]
	if a == nil {
		return nil
	}
	w.expires = now.Add(s.cfg.LeaseTTL)
	return a
}

// Heartbeat renews an assignment's lease and reports whether the execution
// is still wanted.
func (s *Service) Heartbeat(assignmentID, workerID string) (*api.HeartbeatResponse, error) {
	s.counters.Heartbeats.Add(1)
	now := s.now()
	a := s.lookupLease(assignmentID, workerID, now)
	if a == nil {
		return &api.HeartbeatResponse{State: api.HeartbeatGone}, nil
	}
	sh := s.shardOf(a.job.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.assignments[assignmentID] != a {
		return &api.HeartbeatResponse{State: api.HeartbeatGone}, nil
	}
	a.deadline = now.Add(s.cfg.LeaseTTL)
	if a.cancelled {
		return &api.HeartbeatResponse{State: api.HeartbeatCancelled}, nil
	}
	return &api.HeartbeatResponse{State: api.HeartbeatActive}, nil
}

// Report ends an assignment. Reports on expired (requeued) assignments are
// rejected as stale; reports on cancelled replicas are accepted but counted
// as cancellations, not completions. The first successful completion of a
// task wins — both properties together guarantee no duplicate completions.
func (s *Service) Report(assignmentID, workerID, outcome string) (*api.ReportResponse, error) {
	if outcome != api.OutcomeSuccess && outcome != api.OutcomeFailure {
		return nil, errf(http.StatusBadRequest, "service: unknown outcome %q", outcome)
	}
	now := s.now()
	a := s.lookupLease(assignmentID, workerID, now)
	if a == nil {
		s.counters.StaleReports.Add(1)
		return &api.ReportResponse{Accepted: false, Stale: true}, nil
	}
	sh := s.shardOf(a.job.id)
	sh.mu.Lock()
	if sh.assignments[assignmentID] != a {
		sh.mu.Unlock()
		s.counters.StaleReports.Add(1)
		return &api.ReportResponse{Accepted: false, Stale: true}, nil
	}
	// Journal before applying: if the append fails the report is refused
	// with the assignment intact, and the worker's retry (or eventual
	// lease expiry) keeps state and log agreeing.
	var lsn uint64
	if rec := s.reportRecord(sh, a, outcome, now); rec != nil {
		var err error
		if lsn, err = s.appendRecord(rec); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
	}
	resp, wake := s.applyReportLocked(sh, a, outcome, now)
	sh.mu.Unlock()
	s.finishLease(a)
	if wake {
		s.hub.broadcast()
	}
	s.snapshotIfDue()
	if err := s.waitDurable(lsn); err != nil {
		return nil, err
	}
	return resp, nil
}

// reportRecord builds the WAL record for a report, or nil when the report
// must not be journaled. Journal only while the job record is resident: a
// cancelled replica's lease can outlive its completed-then-DELETEd job,
// and a record naming a dropped job id would be unreplayable after the
// next snapshot no longer carries the job (recovery would refuse the data
// dir). The report still counts in memory; it just isn't history anyone
// can replay. Callers hold sh.mu.
func (s *Service) reportRecord(sh *shard, a *assignment, outcome string, now time.Time) *record {
	if s.pst == nil || sh.jobs[a.job.id] != a.job {
		return nil
	}
	return &record{
		Op: opReport, Ts: now.UnixMilli(), Job: a.job.id,
		Task: a.task.ID, Site: a.ref.Site, Worker: a.ref.Worker,
		Outcome: outcome,
	}
}

// applyReportLocked applies one validated, already-journaled (when due)
// report to its job: ledger, scheduler callbacks, counters, job
// completion. Callers hold sh.mu, have verified the lease is live
// (sh.assignments[a.id] == a), and must finishLease(a) after unlocking.
// wake asks for a hub broadcast — see the comment inside for why most
// reports do not wake anyone.
func (s *Service) applyReportLocked(sh *shard, a *assignment, outcome string, now time.Time) (*api.ReportResponse, bool) {
	j := a.job
	// recorded mirrors reportRecord's journaling condition: with
	// journaling on, telemetry folds exactly when a WAL record was
	// written, which is what keeps the EWMAs a pure function of the
	// record stream (recovery folds the same records back). Without
	// journaling it degrades to "job resident".
	recorded := sh.jobs[j.id] == j
	if s.pst != nil && recorded && j.state == api.JobRunning {
		op := ledgerFailure
		if outcome == api.OutcomeSuccess {
			op = ledgerSuccess
		}
		j.ledger = j.ledger.add(ledgerRec{
			Op: op, Task: a.task.ID,
			Site: int32(a.ref.Site), Worker: int32(a.ref.Worker),
			Ts: now.UnixMilli(),
		})
	}
	delete(sh.assignments, a.id)
	if a.speculative {
		// The twin ended (whichever way): the task may be speculated again
		// if a remaining lease straggles too.
		delete(j.specMarked, a.task.ID)
	}
	if recorded {
		// Telemetry folds by outcome alone, cancelled or not — the journal
		// record carries only the outcome, and live must match replay.
		if outcome == api.OutcomeSuccess {
			s.tel.observeSuccess(a.ref, now.UnixMilli()-a.granted, a.granted > 0)
		} else {
			s.tel.observeFailure(a.ref)
		}
	}
	resp := &api.ReportResponse{Accepted: true}
	// Long-poll wakeups are targeted: parked pulls only care about events
	// that can make new work dispatchable (a failure requeues the task, a
	// freed quota slot unthrottles a tenant — finishLease handles that
	// one) or change the open-job count (completion of the job's last
	// task, which completeJobLocked broadcasts itself). A plain success or
	// a cancelled replica frees no work for anyone else, so the common
	// case does not wake the whole herd just to find nothing.
	wake := false
	switch {
	case a.cancelled:
		// Covers replicas obsoleted by another completion AND any
		// execution that outlived its job: completeJobLocked cancel-marks
		// every assignment still in flight for the job, so no report can
		// reach a completed job's (released) scheduler or resurrect a task
		// another worker already finished.
		j.cancelled++
		s.counters.Cancellations.Add(1)
		if a.speculative {
			s.counters.SpeculationLosses.Add(1)
		}
		resp.Cancelled = true
	case outcome == api.OutcomeFailure:
		j.failed++
		s.counters.Failures.Add(1)
		if a.speculative {
			s.counters.SpeculationLosses.Add(1)
		}
		// Sibling rule: when the scheduler's view of this execution
		// survives in a live primary/twin sibling (same schedRef), the
		// failure must not requeue the task — the scheduler still sees one
		// running execution, and it is still running.
		if j.sched != nil && !liveSiblingLocked(sh, a) {
			j.sched.OnExecutionFailed(a.task.ID, a.schedRef)
		}
		wake = true
	default:
		if a.granted > 0 {
			j.durs.add(now.UnixMilli() - a.granted)
		}
		if a.speculative {
			s.counters.SpeculationWins.Add(1)
		}
		victims := j.sched.OnTaskComplete(a.task.ID, a.schedRef)
		j.completed++
		s.counters.Completions.Add(1)
		for _, v := range victims {
			s.cancelExecutionLocked(sh, j, a.task.ID, v)
		}
		// First report wins: cancel-mark every OTHER live execution of the
		// task. The victims loop above covers replicas the scheduler knows
		// about; this covers the ones it does not — a speculative twin, or
		// the straggling primary a winning twin just beat. Their eventual
		// reports come back cancelled, never as a second completion.
		for _, other := range sh.assignments {
			if other.job == j && other.task.ID == a.task.ID && !other.cancelled {
				other.cancelled = true
			}
		}
		delete(j.specMarked, a.task.ID)
		if j.sched.Remaining() == 0 {
			s.completeJobLocked(sh, j, now) // broadcasts
		}
	}
	resp.JobState = j.state
	return resp, wake
}

// liveSiblingLocked reports whether another live, non-cancelled execution
// of a's task shares a's schedRef — i.e. a is one half of a primary/twin
// pair whose other half still runs. Scheduler-created replicas carry
// their own refs and are never siblings. Callers hold sh.mu.
func liveSiblingLocked(sh *shard, a *assignment) bool {
	for _, other := range sh.assignments {
		if other != a && other.job == a.job && other.task.ID == a.task.ID &&
			!other.cancelled && other.schedRef == a.schedRef {
			return true
		}
	}
	return false
}

// ReportBatch ends up to a stream's worth of assignments (at most
// maxStreamBatch, enforced) in one call. Per item the semantics are
// exactly Report's — stale rejection, cancelled accounting,
// first-completion-wins, and a duplicate assignment id within the batch
// is stale just as a second Report call would be — which is what keeps
// exactly-once accounting intact when a worker retries a whole batch
// after a dropped connection: items that landed the first time come back
// stale, never double-counted. The batch's WAL records go through ONE contiguous
// commit-stage append per shard group (consecutive LSNs, one write(2))
// and one durability wait covers them all, amortizing the fsync that
// dominates a journaled report's cost.
func (s *Service) ReportBatch(workerID string, items []api.ReportItem) (*api.ReportBatchResponse, error) {
	// A worker's outstanding leases are capped at maxStreamBatch, so no
	// honest batch is bigger; an unbounded one would hold sh.mu across an
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
	as := make([]*assignment, len(items))

	// Resolve every lease in one registry pass (one registration renewal).
	// An unknown worker makes every item stale — same contract as Report.
	// Duplicate assignment ids inside one batch resolve for the FIRST
	// occurrence only: a later duplicate is what a second Report call would
	// be — the lease is gone by then — so it must come back Stale, not be
	// applied twice (twice through applyReportLocked would double-journal
	// and double-count, and if the first apply completed the job the second
	// would find j.sched nil).
	r := s.reg
	r.mu.Lock()
	if w := r.workers[workerID]; w != nil {
		w.expires = now.Add(s.cfg.LeaseTTL)
		seen := make(map[string]struct{}, len(items))
		for i := range items {
			id := items[i].AssignmentID
			if _, dup := seen[id]; dup {
				continue // as[i] stays nil → Stale below
			}
			seen[id] = struct{}{}
			as[i] = w.assignments[id]
		}
	}
	r.mu.Unlock()

	// Group live leases by owning shard, preserving item order within each
	// group (ledger and WAL order inside a shard match the batch's order).
	groups := make(map[*shard][]int)
	for i, a := range as {
		if a == nil {
			s.counters.StaleReports.Add(1)
			results[i] = api.ReportResponse{Stale: true}
			continue
		}
		groups[s.shardOf(a.job.id)] = append(groups[s.shardOf(a.job.id)], i)
	}

	var maxLSN uint64
	wake := false
	var finished []*assignment
	for sh, idxs := range groups {
		sh.mu.Lock()
		// Re-validate under the shard lock and journal the whole group
		// with one contiguous append BEFORE applying anything (the same
		// journal-before-apply rule as Report, batch-wide: an append
		// failure refuses the group with every lease intact).
		live := make([]int, 0, len(idxs))
		var recs []*record
		for _, i := range idxs {
			a := as[i]
			if sh.assignments[a.id] != a {
				s.counters.StaleReports.Add(1)
				results[i] = api.ReportResponse{Stale: true}
				continue
			}
			if rec := s.reportRecord(sh, a, items[i].Outcome, now); rec != nil {
				recs = append(recs, rec)
			}
			live = append(live, i)
		}
		if len(recs) > 0 {
			first, err := s.appendRecords(recs)
			if err != nil {
				sh.mu.Unlock()
				return nil, err
			}
			if last := first + uint64(len(recs)) - 1; last > maxLSN {
				maxLSN = last
			}
		}
		for _, i := range live {
			a := as[i]
			resp, w := s.applyReportLocked(sh, a, items[i].Outcome, now)
			results[i] = *resp
			wake = wake || w
			finished = append(finished, a)
		}
		sh.mu.Unlock()
	}
	for _, a := range finished {
		s.finishLease(a)
	}
	if wake {
		s.hub.broadcast()
	}
	s.snapshotIfDue()
	if err := s.waitDurable(maxLSN); err != nil {
		return nil, err
	}
	return &api.ReportBatchResponse{Results: results}, nil
}
