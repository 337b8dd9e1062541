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
	"sync"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/metrics"
	"gridsched/internal/service/api"
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

// Pull hands the worker a leased task, parking up to wait for one to become
// dispatchable. It blocks in ServeHTTP; done aborts the park (request
// context).
func (s *Service) Pull(done <-chan struct{}, workerID string, wait time.Duration) (*api.PullResponse, error) {
	resp, _, err := s.pull(done, workerID, wait)
	return resp, err
}

// pull implements Pull and additionally reports how long the call spent
// parked waiting for work. The park is the long-poll portion of the
// request's wall time — up to the full poll budget on an idle system —
// and the HTTP handler forwards it to the ingress shedder
// (middleware.ObserveParked) so it is never mistaken for service
// latency.
func (s *Service) pull(done <-chan struct{}, workerID string, wait time.Duration) (resp *api.PullResponse, parked time.Duration, err error) {
	if wait < 0 {
		wait = 0
	}
	if wait > maxPullWait {
		wait = maxPullWait
	}
	s.counters.Pulls.Add(1)
	deadline := time.Now().Add(wait)
	openAtEntry := -1
	for {
		if s.closed.Load() {
			return nil, parked, errf(503, "service: closed")
		}
		now := s.now()
		s.maybeSweep(now)

		s.reg.mu.Lock()
		w := s.reg.workers[workerID]
		if w == nil {
			s.reg.mu.Unlock()
			return nil, parked, errf(404, "service: unknown worker %q (lease expired? re-register)", workerID)
		}
		w.expires = now.Add(s.cfg.LeaseTTL)
		if w.streaming {
			s.reg.mu.Unlock()
			return nil, parked, errf(409, "service: worker %q has a lease stream open", workerID)
		}
		if len(w.assignments) > 0 {
			var id string
			for id = range w.assignments {
				break
			}
			s.reg.mu.Unlock()
			return nil, parked, errf(409, "service: worker %q already holds assignment %q", workerID, id)
		}
		if w.pulling {
			s.reg.mu.Unlock()
			return nil, parked, errf(409, "service: worker %q has another pull in flight", workerID)
		}
		w.pulling = true
		ref, tags := w.ref, w.tags
		s.reg.mu.Unlock()

		// Subscribe BEFORE scanning: any state change after this point
		// closes ch, so a wakeup between a fruitless scan and the park is
		// never lost.
		ch := s.hub.wait()
		dispatchStart := time.Now()
		a, resp, lsn := s.dispatchOnce(w.id, ref, tags, now)

		s.reg.mu.Lock()
		w.pulling = false
		orphaned := false
		if a != nil {
			if s.reg.workers[workerID] == w {
				w.assignments[a.id] = a
			} else {
				orphaned = true // deregistered mid-dispatch
			}
		}
		s.reg.mu.Unlock()
		if orphaned {
			// The worker vanished between the grant and the attach; requeue
			// the task as if the lease expired instantly.
			s.requeueOrphan(a)
			return nil, parked, errf(404, "service: unknown worker %q (lease expired? re-register)", workerID)
		}
		if a != nil {
			s.counters.ObserveDispatch(time.Since(dispatchStart).Nanoseconds())
			s.snapshotIfDue()
			if err := s.waitDurable(lsn); err != nil {
				// The assignment stands (journaled and leased); only its
				// durability confirmation failed. The worker gets an error,
				// abandons the pull, and the lease expires back into the
				// queue.
				return nil, parked, err
			}
			return resp, parked, nil
		}

		// Surface idleness promptly when a job finishes while we wait:
		// drain-watching clients (exit-when-idle workers, the live
		// runtime) react at the completion broadcast instead of sitting
		// out the rest of their poll budget.
		open := int(s.counters.OpenJobs.Load())
		if open > openAtEntry {
			openAtEntry = open
		}
		if open < openAtEntry {
			return &api.PullResponse{Status: api.StatusEmpty, OpenJobs: open}, parked, nil
		}

		park := time.Until(deadline)
		if park <= 0 {
			return &api.PullResponse{Status: api.StatusEmpty, OpenJobs: open}, parked, nil
		}
		// Cap each park below the lease TTL so the loop re-renews the
		// worker's registration lease while it waits.
		if cap := s.cfg.LeaseTTL / 3; cap > 0 && park > cap {
			park = cap
		}
		timer := time.NewTimer(park)
		parkStart := time.Now()
		aborted := false
		select {
		case <-done:
			timer.Stop()
			aborted = true
		case <-ch:
			timer.Stop()
		case <-timer.C:
		}
		parked += time.Since(parkStart)
		if aborted {
			return nil, parked, errf(499, "service: pull abandoned by client")
		}
	}
}

// requeueOrphan expires a just-granted assignment whose worker vanished
// between the grant and the attach (deregistered or swept mid-dispatch),
// returning the task to the queue as if the lease expired instantly.
func (s *Service) requeueOrphan(a *assignment) {
	sh := s.shardOf(a.job.id)
	sh.mu.Lock()
	if sh.assignments[a.id] == a {
		s.expireAssignmentLocked(sh, a, s.now())
	}
	sh.mu.Unlock()
	s.hub.broadcast()
}

// dispatchOnce offers the worker to runnable jobs in fair-share order —
// most underserved tenant-weighted job first — and dispatches the first
// task any scheduler grants it. Returns the granted assignment (nil when
// nothing was dispatchable), the wire response, and the dispatch record's
// LSN for the caller's durability wait.
func (s *Service) dispatchOnce(workerID string, ref core.WorkerRef, tags []string, now time.Time) (*assignment, *api.PullResponse, uint64) {
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
			a, resp, lsn, granted := s.tryJobLocked(sh, cd.j, workerID, ref, tags, now)
			sh.mu.Unlock()
			if granted {
				scratch.retry = retry
				return a, resp, lsn
			}
		}
	}
	scratch.retry = retry
	return nil, nil, 0
}

// tryJobLocked asks one job's scheduler for a task for the worker and, on
// a grant, stages the batch, charges the fair tag, journals the dispatch,
// and creates the lease. Callers hold sh.mu.
//
// Quota is enforced by reservation: the tenant's slot is reserved under
// the coordinator BEFORE NextFor runs (NextFor mutates scheduler state —
// including the randomized pick stream — only when its assignment is
// used, so a throttled tenant's scheduler must not even be consulted),
// and converted to an in-flight charge or released afterwards. The
// reservation keeps concurrent pulls from overshooting a cap that a
// pre-check alone would allow.
func (s *Service) tryJobLocked(sh *shard, j *job, workerID string, ref core.WorkerRef, tags []string, now time.Time) (*assignment, *api.PullResponse, uint64, bool) {
	if sh.jobs[j.id] != j || j.state != api.JobRunning || j.sched == nil {
		return nil, nil, 0, false
	}
	if !tagsSatisfy(j.requires, tags) {
		// Capability constraint: enforced here, before the scheduler is
		// consulted, so an ineligible worker leaves no trace in scheduler
		// state (or its RNG stream) and recovery replay stays exact.
		return nil, nil, 0, false
	}
	if a, resp, lsn, ok := s.trySpeculateLocked(sh, j, workerID, ref, now); ok {
		return a, resp, lsn, true
	}
	c := s.coord
	c.mu.Lock()
	t := c.tenant(j.tenant)
	if q := c.quotaFor(t, s.cfg.TenantMaxInFlight); q > 0 && t.inFlight+t.reserved >= q {
		t.throttles++
		c.mu.Unlock()
		return nil, nil, 0, false
	}
	t.reserved++
	c.mu.Unlock()

	task, status := j.sched.NextFor(ref)
	if status != core.Assigned {
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
				s.completeJobLocked(sh, j, now)
			}
		default:
			panicf("service: unknown scheduler status %v", status)
		}
		return nil, nil, 0, false
	}

	fetched, evicted, err := j.stores[ref.Site].CommitBatchInto(task.Files, sh.fetchBuf[:0], sh.evictBuf[:0])
	if err != nil {
		// Submit validated capacity >= max task size.
		panicf("service: stage job %s task %d at site %d: %v", j.id, task.ID, ref.Site, err)
	}
	sh.fetchBuf, sh.evictBuf = fetched[:0], evicted[:0]
	j.sched.NoteBatch(ref.Site, task.Files, fetched, evicted)
	j.transfers += int64(len(fetched))
	j.dispatched++
	a := &assignment{
		id:       s.nextID("a"),
		job:      j,
		task:     task,
		workerID: workerID,
		ref:      ref,
		deadline: now.Add(s.cfg.LeaseTTL),
		staged:   len(fetched),
		granted:  now.UnixMilli(),
		schedRef: ref, // primary: the scheduler saw this very ref
	}

	var lsn uint64
	c.mu.Lock()
	t.reserved--
	t.inFlight++
	t.dispatches++
	c.charge(j)
	c.down(j.heapIdx)
	c.window.Observe(j.tenant)
	if s.pst != nil {
		// Appended inside the coordinator critical section: the WAL order
		// of dispatch records must equal the order their fair charges were
		// applied, or recovery's in-LSN-order re-charging would diverge.
		// The scheduler already moved (NextFor is the decision), so this
		// append cannot abort — mustAppend fail-stops on journal I/O
		// errors.
		lsn = s.mustAppend(&record{
			Op: opDispatch, Ts: now.UnixMilli(), Job: j.id,
			Task: task.ID, Site: ref.Site, Worker: ref.Worker,
			Assignment: a.id,
		})
	}
	c.mu.Unlock()
	if s.pst != nil {
		j.ledger = j.ledger.add(ledgerRec{
			Op: ledgerDispatch, Task: task.ID,
			Site: int32(ref.Site), Worker: int32(ref.Worker),
			Ts: now.UnixMilli(),
		})
	}
	sh.assignments[a.id] = a
	s.noteDeadline(a.deadline)
	s.counters.Assignments.Add(1)
	s.counters.ActiveLeases.Add(1)
	resp := &api.PullResponse{
		Status: api.StatusAssigned,
		Assignment: &api.Assignment{
			ID:             a.id,
			JobID:          j.id,
			Task:           task,
			Staged:         a.staged,
			LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds(),
		},
		OpenJobs: int(s.counters.OpenJobs.Load()),
	}
	return a, resp, lsn, true
}

// trySpeculateLocked grants the worker a speculative twin of a straggling
// lease, if the sweeper queued one this worker can safely duplicate. The
// twin rides entirely above the scheduler: NextFor never runs — the
// primary's task is re-staged directly and the scheduler only observes
// the storage change through NoteBatch — and the twin's schedRef is the
// PRIMARY's ref, so every later scheduler callback resolves to the one
// execution the scheduler knows about. First report wins; the loser hits
// the existing stale/cancelled rejection. Callers hold sh.mu.
func (s *Service) trySpeculateLocked(sh *shard, j *job, workerID string, ref core.WorkerRef, now time.Time) (*assignment, *api.PullResponse, uint64, bool) {
	if !s.cfg.Speculation || len(j.specPending) == 0 {
		return nil, nil, 0, false
	}
	// Scan the queue (sweep-sorted by task id) for the first entry whose
	// primary is still live and whose replicas all run on OTHER workers —
	// a worker must never race itself. Entries whose primary is gone
	// (reported or expired since the sweep) are dropped and unmarked so
	// the sweeper may re-queue the task if a later lease straggles too.
	for qi := 0; qi < len(j.specPending); {
		taskID := j.specPending[qi]
		var primary *assignment
		conflict := false
		for _, a := range sh.assignments {
			if a.job != j || a.task.ID != taskID {
				continue
			}
			if a.ref == ref {
				conflict = true
				break
			}
			if a.cancelled || a.speculative {
				continue
			}
			// Deterministic pick among scheduler-created replicas: lowest
			// (site, worker). Replay derives the same schedRef by the same
			// rule from its open-execution map (recovery.go).
			if primary == nil || a.ref.Site < primary.ref.Site ||
				(a.ref.Site == primary.ref.Site && a.ref.Worker < primary.ref.Worker) {
				primary = a
			}
		}
		if conflict {
			qi++ // eligible for another worker; keep queued
			continue
		}
		if primary == nil {
			delete(j.specMarked, taskID)
			j.specPending = append(j.specPending[:qi], j.specPending[qi+1:]...)
			continue
		}

		// Quota by reservation, exactly like the primary path: the slot is
		// held before any irreversible mutation (staging moves store and
		// scheduler-locality state).
		c := s.coord
		c.mu.Lock()
		t := c.tenant(j.tenant)
		if q := c.quotaFor(t, s.cfg.TenantMaxInFlight); q > 0 && t.inFlight+t.reserved >= q {
			t.throttles++
			c.mu.Unlock()
			return nil, nil, 0, false
		}
		t.reserved++
		c.mu.Unlock()

		task := primary.task
		j.specPending = append(j.specPending[:qi], j.specPending[qi+1:]...)
		fetched, evicted, err := j.stores[ref.Site].CommitBatchInto(task.Files, sh.fetchBuf[:0], sh.evictBuf[:0])
		if err != nil {
			panicf("service: stage speculative job %s task %d at site %d: %v", j.id, task.ID, ref.Site, err)
		}
		sh.fetchBuf, sh.evictBuf = fetched[:0], evicted[:0]
		j.sched.NoteBatch(ref.Site, task.Files, fetched, evicted)
		j.transfers += int64(len(fetched))
		j.dispatched++
		j.speculated++
		a := &assignment{
			id:          s.nextID("a"),
			job:         j,
			task:        task,
			workerID:    workerID,
			ref:         ref,
			deadline:    now.Add(s.cfg.LeaseTTL),
			staged:      len(fetched),
			granted:     now.UnixMilli(),
			speculative: true,
			schedRef:    primary.schedRef,
		}

		var lsn uint64
		c.mu.Lock()
		t.reserved--
		t.inFlight++
		t.dispatches++
		// No fair charge and no heap re-sift: the twin redoes work the job
		// was already charged for at the primary's grant; billing it again
		// would penalize a job for its straggler.
		c.window.Observe(j.tenant)
		if s.pst != nil {
			lsn = s.mustAppend(&record{
				Op: opDispatch, Ts: now.UnixMilli(), Job: j.id,
				Task: task.ID, Site: ref.Site, Worker: ref.Worker,
				Assignment: a.id, Spec: true,
			})
		}
		c.mu.Unlock()
		if s.pst != nil {
			j.ledger = j.ledger.add(ledgerRec{
				Op: ledgerSpecDispatch, Task: task.ID,
				Site: int32(ref.Site), Worker: int32(ref.Worker),
				Ts: now.UnixMilli(),
			})
		}
		sh.assignments[a.id] = a
		s.noteDeadline(a.deadline)
		s.counters.Assignments.Add(1)
		s.counters.ActiveLeases.Add(1)
		s.counters.SpeculativeDispatches.Add(1)
		resp := &api.PullResponse{
			Status: api.StatusAssigned,
			Assignment: &api.Assignment{
				ID:             a.id,
				JobID:          j.id,
				Task:           task,
				Staged:         a.staged,
				LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds(),
			},
			OpenJobs: int(s.counters.OpenJobs.Load()),
		}
		return a, resp, lsn, true
	}
	return nil, nil, 0, false
}
