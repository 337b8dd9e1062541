// The worker registry and the lease protocol surface (register,
// deregister, heartbeat, report — single and batched). The registry is a
// leaf lock guarding worker registrations, (site, worker) slots, and each
// worker's outstanding-lease set; everything lease-state-ful about an
// assignment itself (deadline, the live lease table, and the job-table
// execution it leases) lives on the owning job's shard. A report or
// heartbeat therefore touches two locks back to back — registry to resolve
// the assignment, shard to act on it — and never blocks traffic for
// unrelated jobs. What a report or an expiry does to the job is not
// decided here: the lease paths journal the event, hand it to the job
// state machine's apply (jobstate.go), and do the live-only rest — metrics
// counters, wakeups, finishLease — from what apply says happened
// (shard.go: endLeaseLocked).
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
		s.expireLease(a, now)
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
	if a.x.cancelled {
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
	if rec := s.leaseRecord(sh, a, opReport, outcome, now); rec != nil {
		var err error
		if lsn, err = s.appendRecord(rec); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
	}
	resp, wake := s.reportLocked(sh, a, outcome, now)
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

// reportLocked applies one validated, already-journaled (when due) report
// to its job and renders the reply. Callers hold sh.mu, have verified the
// lease is live (sh.assignments[a.id] == a), and must finishLease(a) after
// unlocking. wake asks for a hub broadcast: parked pulls only care about
// events that can make new work dispatchable (a failure requeues the task;
// a freed quota slot unthrottles a tenant — finishLease handles that one)
// or change the open-job count (jobCompleted broadcasts itself). A plain
// success or a cancelled replica frees no work for anyone else, so the
// common case does not wake the whole herd just to find nothing.
func (s *Service) reportLocked(sh *shard, a *assignment, outcome string, now time.Time) (resp *api.ReportResponse, wake bool) {
	op := ledgerFailure
	if outcome == api.OutcomeSuccess {
		op = ledgerSuccess
	}
	s.endLeaseLocked(sh, a, op, now)
	return &api.ReportResponse{
		Accepted:  true,
		Cancelled: a.x.cancelled,
		JobState:  a.job.state,
	}, op == ledgerFailure && !a.x.cancelled
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
	// applied twice (twice through reportLocked would double-journal
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
			if rec := s.leaseRecord(sh, a, opReport, items[i].Outcome, now); rec != nil {
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
			resp, w := s.reportLocked(sh, a, items[i].Outcome, now)
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
