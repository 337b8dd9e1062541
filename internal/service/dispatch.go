// Dispatch: which runnable job a worker pull draws from, and the grant.
// One hold of the service lock covers the whole decision — the candidate
// order, the quota check, the scheduler call, the fair charge, the
// dispatch record's WAL position and the lease — so the quota check and
// the grant can never disagree, and the WAL order of dispatch records is
// the order their fair charges were applied, which is what keeps recovery
// bit-exact.
package service

import (
	"fmt"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// candLess orders candidates deadline-urgent jobs first, then
// most-underserved, submission order on ties — the heap's (fair, seq)
// total order with an urgency boost layered on top. Urgency reorders
// only the offer sequence, never the fair accounting: an urgent job
// still pays full fair charge for every dispatch, so the boost is a
// soft priority that starves no one (the boosted job's fair tag races
// ahead and the others win the next tie).
func candLess(a, b *job) bool {
	if a.urgent != b.urgent {
		return a.urgent
	}
	if a.fair != b.fair {
		return a.fair < b.fair
	}
	return a.seq < b.seq
}

// candDown sifts index i of a candidate min-heap.
func candDown(h []*job, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && candLess(h[l], h[min]) {
			min = l
		}
		if r < n && candLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// candInit heapifies in O(n); candPop then yields candidates in exact
// (urgent, fair, seq) order at O(log n) each. Lazy selection: a pull that
// dispatches off the first candidate — the common case — pays O(n) for
// the copy + heapify and a single pop, never a full sort.
func candInit(h []*job) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		candDown(h, i)
	}
}

func candPop(h []*job) (*job, []*job) {
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if last > 0 {
		candDown(h, 0)
	}
	return min, h
}

// dispatchOnce offers the worker to runnable jobs in fair-share order —
// most underserved tenant-weighted job first — and dispatches the first
// task any scheduler grants it. Returns the granted assignment (nil when
// nothing was dispatchable), its wire form, and the dispatch record's LSN
// for the caller's durability wait.
func (s *Service) dispatchOnce(workerID string, ref core.WorkerRef, tags []string, now time.Time) (*assignment, api.Assignment, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cands = append(s.cands[:0], s.arb.heap...)
	cands := s.cands
	candInit(cands)
	for len(cands) > 0 {
		var j *job
		j, cands = candPop(cands)
		if a, wire, lsn := s.tryJobLocked(j, workerID, ref, tags, now); a != nil {
			return a, wire, lsn
		}
	}
	return nil, api.Assignment{}, 0
}

// tryJobLocked decides whether the job has a task for the worker — a
// speculative twin of a queued straggler first, else whatever the job's
// scheduler picks, which is not asked while the slot runs a twin — and
// grants it. A tenant at its quota is skipped before the scheduler is
// consulted: NextFor mutates scheduler state — including the randomized
// pick stream — so a throttled tenant's scheduler must not even be asked.
// Callers hold s.mu.
func (s *Service) tryJobLocked(j *job, workerID string, ref core.WorkerRef, tags []string, now time.Time) (*assignment, api.Assignment, uint64) {
	if s.jobs[j.id] != j || j.state != api.JobRunning || j.sched == nil {
		return nil, api.Assignment{}, 0
	}
	if !tagsSatisfy(j.requires, tags) {
		// Capability constraint: enforced here, before the scheduler is
		// consulted, so an ineligible worker leaves no trace in scheduler
		// state (or its RNG stream) and recovery replay stays exact.
		return nil, api.Assignment{}, 0
	}
	t := s.arb.tenant(j.tenant)
	if q := s.arb.quotaFor(t, s.cfg.TenantMaxInFlight); q > 0 && t.inFlight >= q {
		t.throttles++
		return nil, api.Assignment{}, 0
	}

	task, spec := s.stragglerForLocked(j, ref)
	status := core.Assigned
	switch {
	case spec:
	case j.twinAt(ref):
		// The slot (a streaming worker's: it holds several leases) runs a
		// twin the scheduler cannot see, so a replicating scheduler could
		// pick that very task for it. The job offers the slot nothing more
		// until the twin's lease ends — which nudges the worker's stream.
		status = core.Wait
	default:
		task, status = j.sched.NextFor(ref)
	}
	switch status {
	case core.Assigned:
		return s.grantLocked(j, t, task, spec, workerID, ref, now)
	case core.Wait:
		// Nothing for this worker now; the caller tries the next-most
		// underserved job.
	case core.Done:
		// The scheduler has nothing pending, but in-flight leases may
		// still fail and requeue — only Remaining()==0 ends the job.
		if j.sched.Remaining() == 0 {
			s.completeJob(j, now.UnixMilli())
			s.jobCompleted()
		}
	default:
		panic(fmt.Sprintf("service: unknown scheduler status %v", status))
	}
	return nil, api.Assignment{}, 0
}

// stragglerForLocked picks the straggling task this worker may run a
// speculative twin of, if the sweeper queued one. The twin rides entirely
// above the scheduler: NextFor never runs — apply re-stages the primary's
// task and the scheduler only observes the storage change through
// NoteBatch — and the twin answers to the scheduler under the PRIMARY's
// ref, so every later callback resolves to the one execution the scheduler
// knows about. First report wins; the loser hits the cancelled rejection.
// Callers hold s.mu.
func (s *Service) stragglerForLocked(j *job, ref core.WorkerRef) (workload.Task, bool) {
	// Scan the queue (sweep-sorted by task id) for the first entry whose
	// primary is still live and whose replicas all run on OTHER workers —
	// a worker must never race itself. Entries whose primary is gone
	// (reported or expired since the sweep) are dropped and unmarked so
	// the sweeper may re-queue the task if a later lease straggles too.
	for qi := 0; qi < len(j.specPending); {
		id := j.specPending[qi]
		if j.find(id, ref) != nil {
			qi++ // eligible for another worker; keep queued
			continue
		}
		j.specPending = append(j.specPending[:qi], j.specPending[qi+1:]...)
		if j.primary(id) != nil {
			return j.w.Tasks[id], true
		}
		delete(j.specMarked, id)
	}
	return workload.Task{}, false
}

// grantLocked leases the decided task to the worker: journal → apply →
// lease. It is the one grant tail — a scheduler pick and a speculative
// twin differ only in the event's op and in the fair charge. Callers hold
// s.mu and have checked t's quota.
func (s *Service) grantLocked(j *job, t *tenantState, task workload.Task, spec bool, workerID string, ref core.WorkerRef, now time.Time) (*assignment, api.Assignment, uint64) {
	if j.find(task.ID, ref) != nil {
		// Unreachable while tryJobLocked's checks hold. Stop before the
		// journal takes a record no replay would accept: a restart from here
		// recovers, a restart after it would not.
		panic(fmt.Sprintf("service: job %s: granting task %d to %+v, which already runs it", j.id, task.ID, ref))
	}
	a := &assignment{
		id:       s.nextID('a'),
		job:      j,
		workerID: workerID,
		deadline: now.Add(s.cfg.LeaseTTL),
	}
	e := ledgerRec{Op: ledgerDispatch, Task: task.ID, Site: int32(ref.Site), Worker: int32(ref.Worker), Ts: now.UnixMilli()}
	if spec {
		e.Op = ledgerSpecDispatch
	}
	t.inFlight++
	t.dispatches++
	if !spec {
		// A twin is neither charged nor re-sifted: it redoes work the job
		// was charged for at the primary's grant; billing it again would
		// penalize a job for its straggler.
		s.arb.charge(j)
	}
	s.arb.window.Observe(j.tenant)
	var lsn uint64
	if s.pst != nil {
		// The scheduler already moved (NextFor is the decision), so this
		// append cannot abort — mustAppend fail-stops on journal I/O errors.
		lsn = s.mustAppend(&record{
			Op: opDispatch, Ts: e.Ts, Job: j.id,
			Task: e.Task, Site: e.Site, Worker: e.Worker,
			Assignment: a.id, Spec: spec,
		})
	}
	res := s.mustApply(j, e, true)
	a.x, a.staged = res.x, res.staged
	s.assignments[a.id] = a
	s.noteDeadline(a.deadline)
	s.counters.Assignments.Add(1)
	s.counters.ActiveLeases.Add(1)
	if spec {
		s.counters.SpeculativeDispatches.Add(1)
	}
	return a, api.Assignment{
		ID:             a.id,
		JobID:          j.id,
		Task:           task,
		Staged:         a.staged,
		LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds(),
	}, lsn
}
