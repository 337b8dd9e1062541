// The dispatch coordinator: the small, separately locked nucleus that
// decides WHICH runnable job a worker pull draws from. It owns the
// fair-share arbiter heap and virtual time (arbiter.go), the per-tenant
// quota table, and the submission-dedup index — and nothing else. A pull
// consults it twice per dispatch, microseconds each time: once to snapshot
// the fair-ordered candidate list, and once to commit the grant (quota
// accounting, fair charge, and the dispatch record's WAL position, whose
// order relative to other charges is what keeps recovery bit-exact). The
// scheduler call, staging, and lease bookkeeping — the expensive part —
// run under the chosen job's shard alone, so pulls serving different jobs
// proceed in parallel.
//
// Candidate traversal is two-pass: the first pass visits jobs in strict
// (fair, seq) order but skips a job whose shard lock is momentarily held
// by another pull (TryLock), so concurrent workers fan out across stripes
// instead of convoying behind the single most-underserved job; the second
// pass revisits the skipped jobs with blocking acquires, guaranteeing a
// pull never misses dispatchable work. Under a sequential caller — every
// determinism-sensitive test, and any single-worker deployment — no lock
// is ever contended, both passes collapse to the exact fair order, and
// the dispatch sequence is identical to the old single-lock scan.
package service

import (
	"fmt"
	"sync"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/metrics"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// coordinator is the dispatch-decision state. See the file comment.
type coordinator struct {
	mu sync.Mutex
	arbiter
	// submissions maps client idempotency keys to job ids.
	submissions map[string]string
}

func newCoordinator() *coordinator {
	return &coordinator{
		arbiter: arbiter{
			tenants: make(map[string]*tenantState),
			window:  metrics.NewShareWindow(shareWindowSize),
		},
		submissions: make(map[string]string),
	}
}

// runnableWeight is the summed weight of all running jobs — the
// denominator of every tenant's share target. Callers hold c.mu.
func (c *coordinator) runnableWeight() int64 {
	total := int64(0)
	for _, t := range c.tenants {
		total += t.weight
	}
	return total
}

// prune drops a tenant's state when nothing keeps it relevant: no quota
// override, no live or reserved leases, no running jobs, and no resident
// job records (running or completed-but-retained; counted, not scanned).
// Called at every event that can strip a tenant of its last anchor —
// job-record deletion, quota-override revert, lease end, and the
// post-recovery sweep — so churning tenant names cannot grow the daemon,
// its snapshots, or its metrics without bound. Callers hold c.mu.
func (c *coordinator) prune(name string) {
	t := c.tenants[name]
	if t == nil || t.quota != 0 || t.running != 0 || t.inFlight != 0 || t.reserved != 0 || t.records != 0 {
		return
	}
	delete(c.tenants, name)
}

// candidate is one runnable job with its fair tag copied under the
// coordinator lock, so the out-of-lock ordering reads a consistent
// snapshot.
type candidate struct {
	j      *job
	fair   uint64
	seq    int64
	urgent bool
}

// candScratch is the per-pull candidate workspace, pooled so the hot
// path allocates nothing once warm.
type candScratch struct {
	cands []candidate
	retry []candidate
}

var candPool = sync.Pool{New: func() any { return &candScratch{} }}

// candLess orders candidates deadline-urgent jobs first, then
// most-underserved, submission order on ties — the heap's (fair, seq)
// total order with an urgency boost layered on top. Urgency reorders
// only the offer sequence, never the fair accounting: an urgent job
// still pays full fair charge for every dispatch, so the boost is a
// soft priority that starves no one (the boosted job's fair tag races
// ahead and the others win the next tie).
func candLess(a, b candidate) bool {
	if a.urgent != b.urgent {
		return a.urgent
	}
	if a.fair != b.fair {
		return a.fair < b.fair
	}
	return a.seq < b.seq
}

// candDown sifts index i of a candidate min-heap.
func candDown(h []candidate, i int) {
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
// (fair, seq) order at O(log n) each. Lazy selection: a pull that
// dispatches off the first candidate — the common case — pays O(n) for
// the snapshot copy + heapify and a single pop, never a full sort.
func candInit(h []candidate) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		candDown(h, i)
	}
}

func candPop(h []candidate) (candidate, []candidate) {
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
	c := s.coord
	scratch := candPool.Get().(*candScratch)
	defer func() {
		scratch.cands, scratch.retry = scratch.cands[:0], scratch.retry[:0]
		candPool.Put(scratch)
	}()
	c.mu.Lock()
	cands := scratch.cands[:0]
	for _, j := range c.heap {
		cands = append(cands, candidate{j: j, fair: j.fair, seq: j.seq, urgent: j.urgent.Load()})
	}
	c.mu.Unlock()
	scratch.cands = cands
	candInit(cands)

	// Pass 0 pops candidates lazily in exact (fair, seq) order, skipping
	// stripes another pull is inside; pass 1 revisits the skipped ones
	// (already in fair order — they were popped in it) with blocking
	// acquires.
	retry := scratch.retry[:0]
	for pass := 0; pass < 2; pass++ {
		remaining := len(cands)
		if pass == 1 {
			remaining = len(retry)
		}
		for i := 0; i < remaining; i++ {
			var cd candidate
			if pass == 0 {
				cd, cands = candPop(cands)
			} else {
				cd = retry[i]
			}
			sh := s.shardOf(cd.j.id)
			if pass == 0 {
				if !sh.mu.TryLock() {
					// Another pull is inside this stripe; try the next-most
					// underserved job first and come back.
					retry = append(retry, cd)
					continue
				}
			} else {
				sh.mu.Lock()
			}
			a, wire, lsn := s.tryJobLocked(sh, cd.j, workerID, ref, tags, now)
			sh.mu.Unlock()
			if a != nil {
				scratch.retry = retry
				return a, wire, lsn
			}
		}
	}
	scratch.retry = retry
	return nil, api.Assignment{}, 0
}

// tryJobLocked decides whether the job has a task for the worker — a
// speculative twin of a queued straggler first, else whatever the job's
// scheduler picks, which is not asked while the slot runs a twin — and
// grants it. Callers hold sh.mu.
//
// Quota is enforced by reservation: the tenant's slot is reserved under
// the coordinator BEFORE NextFor runs (NextFor mutates scheduler state —
// including the randomized pick stream — only when its assignment is
// used, so a throttled tenant's scheduler must not even be consulted),
// and converted to an in-flight charge or released afterwards. The
// reservation keeps concurrent pulls from overshooting a cap that a
// pre-check alone would allow.
func (s *Service) tryJobLocked(sh *shard, j *job, workerID string, ref core.WorkerRef, tags []string, now time.Time) (*assignment, api.Assignment, uint64) {
	if sh.jobs[j.id] != j || j.state != api.JobRunning || j.sched == nil {
		return nil, api.Assignment{}, 0
	}
	if !tagsSatisfy(j.requires, tags) {
		// Capability constraint: enforced here, before the scheduler is
		// consulted, so an ineligible worker leaves no trace in scheduler
		// state (or its RNG stream) and recovery replay stays exact.
		return nil, api.Assignment{}, 0
	}
	c := s.coord
	c.mu.Lock()
	t := c.tenant(j.tenant)
	if q := c.quotaFor(t, s.cfg.TenantMaxInFlight); q > 0 && t.inFlight+t.reserved >= q {
		t.throttles++
		c.mu.Unlock()
		return nil, api.Assignment{}, 0
	}
	t.reserved++
	c.mu.Unlock()

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
	if status == core.Assigned {
		return s.grantLocked(sh, j, t, task, spec, workerID, ref, now)
	}
	c.mu.Lock()
	t.reserved--
	c.mu.Unlock()
	switch status {
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
// Callers hold the job's shard.
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
// sh.mu and one reserved quota slot of t.
func (s *Service) grantLocked(sh *shard, j *job, t *tenantState, task workload.Task, spec bool, workerID string, ref core.WorkerRef, now time.Time) (*assignment, api.Assignment, uint64) {
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
	var lsn uint64
	c := s.coord
	c.mu.Lock()
	t.reserved--
	t.inFlight++
	t.dispatches++
	if !spec {
		// A twin is neither charged nor re-sifted: it redoes work the job
		// was charged for at the primary's grant; billing it again would
		// penalize a job for its straggler.
		c.charge(j)
	}
	c.window.Observe(j.tenant)
	if s.pst != nil {
		// Appended inside the coordinator critical section: the WAL order
		// of dispatch records must equal the order their fair charges were
		// applied, or recovery's in-LSN-order re-charging would diverge.
		// The scheduler already moved (NextFor is the decision), so this
		// append cannot abort — mustAppend fail-stops on journal I/O
		// errors.
		lsn = s.mustAppend(&record{
			Op: opDispatch, Ts: e.Ts, Job: j.id,
			Task: e.Task, Site: e.Site, Worker: e.Worker,
			Assignment: a.id, Spec: spec,
		})
	}
	c.mu.Unlock()
	res := s.mustApply(sh, j, e, true)
	a.x, a.staged = res.x, res.staged
	sh.assignments[a.id] = a
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
