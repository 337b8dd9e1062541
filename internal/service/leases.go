// The worker registry and the lease protocol surface (register,
// deregister, heartbeat, report — a single one is a batch of one). The
// registry is a leaf lock guarding worker registrations, (site, worker)
// slots, and each worker's outstanding-lease set and lease session
// (session.go); everything lease-state-ful about an assignment itself
// (deadline, the live lease table, and the job-table execution it leases)
// lives on the owning job's shard. A report or heartbeat therefore touches
// two locks back to back — registry to resolve the assignment, shard to act
// on it — and never blocks traffic for unrelated jobs. What a report or an
// expiry does to the job is not decided here: the lease paths journal the
// event, hand it to the job state machine's apply (jobstate.go), and do the
// live-only rest — metrics counters, wakeups, finishLease — from what apply
// says happened (shard.go: endLeaseLocked).
package service

import (
	"fmt"
	"maps"
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
	now := s.now()
	for _, a := range orphans {
		s.expireLease(a, now)
	}
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
	sh := s.shardOf(a.job.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.assignments[a.id] != a {
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
// journal append per shard group (consecutive LSNs, one write(2)), the
// groups in the order their shards first appear in the batch, and one
// durability wait covers them all, amortizing the fsync that dominates a
// journaled report's cost.
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
	// One entry per item, on the stack so that a batch of one allocates
	// nothing for it: the live lease the item names and its job's shard. sh
	// goes back to nil once the item is answered.
	var buf [maxStreamBatch]struct {
		a  *assignment
		sh *shard
	}
	work := buf[:len(items)]

	// Resolve every lease in one registry pass (one registration renewal).
	// An unknown worker makes every item stale.
	r := s.reg
	r.mu.Lock()
	if w := r.workers[workerID]; w != nil {
		w.expires = now.Add(s.cfg.LeaseTTL)
		for i := range items {
			work[i].a = w.assignments[items[i].AssignmentID]
		}
	}
	r.mu.Unlock()
	stale := func(i int) {
		s.counters.StaleReports.Add(1)
		results[i].Stale = true
		work[i].a, work[i].sh = nil, nil
	}
	for i := range work {
		a := work[i].a
		// A duplicate id resolves for its FIRST occurrence only: a later one
		// is what a second call would be — the lease is gone by then — and
		// applying it twice would double-journal and double-count (and find
		// j.sched nil if the first apply completed the job).
		for k := 0; k < i && a != nil; k++ {
			if work[k].a == a {
				a = nil
			}
		}
		if a == nil {
			stale(i)
			continue
		}
		work[i].sh = s.shardOf(a.job.id)
	}

	// Live leases go shard by shard, in item order within each (ledger and
	// WAL order inside a shard match the batch's order).
	var maxLSN uint64
	var failed error
	wake := false
	// One shard group's encoded records, back to back, and a view of each.
	// (A view taken before recs outgrows its array keeps the old array, whose
	// bytes nothing writes again.)
	var recs []byte
	var payloads [][]byte
	for i := range work {
		sh := work[i].sh
		if sh == nil {
			continue // stale, or answered with an earlier item's shard
		}
		group := work[i:]
		sh.mu.Lock()
		// Re-validate under the shard lock and journal the whole group with
		// one contiguous append BEFORE applying anything: if the append fails
		// the group is refused with every lease intact, and the worker's
		// retry (or eventual lease expiry) keeps state and log agreeing.
		recs, payloads = recs[:0], payloads[:0]
		for k := range group {
			g := &group[k]
			if g.sh != sh {
				continue
			}
			if sh.assignments[g.a.id] != g.a {
				stale(i + k)
			} else if rec, ok := s.leaseRecord(sh, g.a, opReport, items[i+k].Outcome, now); ok {
				if recs == nil {
					recs = make([]byte, 0, len(group)*maxLeaseRecordLen)
				}
				n := len(recs)
				recs = rec.appendTo(recs)
				payloads = append(payloads, recs[n:])
			}
		}
		if len(payloads) > 0 {
			var first uint64
			if first, failed = s.appendEncoded(payloads...); failed == nil {
				maxLSN = max(maxLSN, first+uint64(len(payloads))-1)
			}
		}
		if failed != nil {
			sh.mu.Unlock()
			break
		}
		for k := range group {
			if a := group[k].a; group[k].sh == sh {
				op := ledgerFailure
				if items[i+k].Outcome == api.OutcomeSuccess {
					op = ledgerSuccess
				}
				s.endLeaseLocked(sh, a, op, now)
				results[i+k] = api.ReportResponse{Accepted: true, Cancelled: a.x.cancelled, JobState: a.job.state}
				group[k].sh = nil
				// Parked sessions only care about events that can make new
				// work dispatchable (a failure requeues the task; a freed
				// quota slot unthrottles a tenant — finishLease handles that
				// one) or change the open-job count (jobCompleted broadcasts
				// itself). A plain success or a cancelled replica frees no
				// work for anyone else, so the common case does not wake the
				// whole herd just to find nothing.
				wake = wake || op == ledgerFailure && !a.x.cancelled
			}
		}
		sh.mu.Unlock()
	}
	// Only now, with every group applied: the first finishLease nudges the
	// worker's session, and one that wakes while most of the batch is still
	// held would grant a sliver of a frame.
	for _, it := range work {
		if it.a != nil && it.sh == nil {
			s.finishLease(it.a)
		}
	}
	if failed != nil {
		return nil, failed
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
