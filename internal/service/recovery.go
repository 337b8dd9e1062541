// Recovery rebuilds a Service from Config.DataDir: load the snapshot,
// replay the write-ahead log tail on top of it, and reconstruct every
// running job's scheduler, site stores, and counters exactly as the
// crashed process left them.
//
// Scheduler state is reconstructed by *command replay*, not
// deserialization: the factory rebuilds the scheduler from (algorithm,
// workload, seed) — fully deterministic — and the job's ledger drives it
// through the same dispatch/complete/fail sequence the original instance
// saw. That reproduces internal state the schedulers could never
// serialize portably, in particular the ChooseTask(n) RNG stream: a
// recovered worker-centric scheduler makes the same future random draws an
// uninterrupted run would have made.
//
// Worker registrations and leases are NOT recovered — they are liveness
// state about processes that may not have survived the outage. Every
// assignment open at crash time is expired through the scheduler's normal
// failure path (journaled, so a second crash replays identically), and
// workers re-register on their next pull; the client loop does this
// transparently.
//
// Recovery runs single-threaded from New, before the sweeper starts and
// before the service is reachable, so it touches shard and coordinator
// state without contention; it still goes through the locked helpers it
// shares with the live paths. The shard stripe count is irrelevant to
// what is recovered: jobs land on whatever stripe the current Config
// routes them to.
package service

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service/api"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// openKey identifies one in-flight execution during replay. At most one
// live assignment exists per (task, worker slot): the service grants a
// worker one assignment at a time, and a slot is vacated only after its
// assignment ended.
type openKey struct {
	task   int32
	site   int32
	worker int32
}

// openExec mirrors an assignment's replay-relevant state: cancelled, the
// speculative-twin flag, and schedRef — the worker ref the scheduler
// associates with the execution (the primary's ref for a twin).
type openExec struct {
	cancelled bool
	spec      bool
	schedRef  core.WorkerRef
}

// grantKey identifies one granted lease across the whole log for the
// telemetry fold: the success-report duration sample is report Ts minus
// grant Ts, and the grant may live in the snapshot's ledgers or the tail.
type grantKey struct {
	job    string
	task   int32
	site   int32
	worker int32
}

// recoveryState carries the submission-ordered job list recovery builds
// up from the snapshot and the log tail, plus the open-grant timestamps
// feeding the telemetry fold.
type recoveryState struct {
	order   []*job
	deletes []string
	grants  map[grantKey]int64 // grant Ts (unix millis) of still-open leases
}

// recover loads DataDir and rebuilds state. Called from New, before the
// sweeper starts and before the service is reachable.
func (s *Service) recover() error {
	start := time.Now()
	if err := os.MkdirAll(s.pst.dir, 0o755); err != nil {
		return err
	}
	rs := &recoveryState{grants: make(map[grantKey]int64)}

	// 1. Checkpoint: the manifest plus the running jobs' workload files,
	// then a sweep of whatever a crash mid-checkpoint stranded — temp
	// files, and workload files the manifest does not rely on (written
	// ahead of a manifest that never landed, or outliving one that retired
	// them). Without the sweep every such crash leaks a file forever.
	snap, stored, err := readCheckpoint(s.pst.dir)
	if err != nil {
		return err
	}
	s.pst.stored = stored
	if err := sweepDataDir(s.pst.dir, stored); err != nil {
		return err
	}
	if snap == nil {
		// Fresh data dir: keep the partition-seeded sequence New installed
		// rather than clobbering it with the zero value.
		snap = &snapshot{Version: snapshotVersion, Seq: s.seq.Load()}
	} else {
		// Partition identity check: ids in this dir were minted in the
		// recorded partition's residue class, so recovering under any other
		// identity would mis-route every one of them. Pre-partitioning
		// snapshots (count 0) can only be the standalone identity.
		snapIdx, snapCnt := snap.PartitionIndex, snap.PartitionCount
		if snapCnt == 0 {
			snapIdx, snapCnt = 0, 1
		}
		if snapIdx != s.cfg.PartitionIndex || snapCnt != s.cfg.PartitionCount {
			return fmt.Errorf("service: data dir belongs to partition %d of %d, configured as %d of %d (re-partitioning needs a migration, not a restart)",
				snapIdx, snapCnt, s.cfg.PartitionIndex, s.cfg.PartitionCount)
		}
	}
	s.seq.Store(snap.Seq)
	s.pst.carry = snap.Carry
	// Fair-share state: the arbiter's virtual time and per-tenant durable
	// state come from the snapshot; tail records then re-apply charges and
	// quota changes in log order, exactly as the live paths did.
	s.coord.vtime = snap.VTime
	for _, st := range snap.Tenants {
		t := s.coord.tenant(st.Name)
		t.quota, t.dispatches = st.Quota, st.Dispatches
	}
	// Worker telemetry: the snapshot's fixed-point accumulators restore
	// bit-exact; tail records fold on top in LSN order (applyLogRecord),
	// reproducing the crashed process's EWMAs exactly.
	s.tel.restoreWorkers(snap.Workers)
	for i := range snap.Jobs {
		if err := s.restoreSnapJob(rs, &snap.Jobs[i]); err != nil {
			return err
		}
	}

	// 2. Log tail: records the snapshot does not cover. They extend the
	// per-job ledgers (and create/delete jobs) but are not applied yet.
	info, err := journal.ReadLog(s.walPath(), snap.LastLSN, func(lsn uint64, payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("service: journal record %d: %w", lsn, err)
		}
		return s.applyLogRecord(rs, &rec)
	})
	if err != nil {
		return err
	}

	// 3. Open the writer over the validated prefix (truncating any torn
	// tail) before replay: replay appends the expiry records for
	// assignments that were in flight at the crash. The commit stage
	// comes up with the writer — replay appends go through it too.
	lastLSN := max(snap.LastLSN, info.LastLSN)
	met := &journal.Metrics{}
	w, err := journal.OpenWriter(s.walPath(), s.cfg.Fsync, s.cfg.FsyncInterval, lastLSN, info.ValidSize, met)
	if err != nil {
		return err
	}
	s.pst.w = w
	s.pst.stage = newCommitStage(w)
	s.pst.journalMetrics = met

	// 4. Replay each resident job's ledger through a rebuilt scheduler,
	// then expire whatever was still in flight.
	replayed := info.Records
	for _, j := range rs.order {
		if j.state == api.JobCompleted {
			continue
		}
		n, err := s.replayJob(j)
		if err != nil {
			return fmt.Errorf("service: replay job %s (%s): %w", j.id, j.algorithm, err)
		}
		replayed += n
	}
	for _, id := range rs.deletes {
		sh := s.shardOf(id)
		j := sh.jobs[id]
		if j == nil {
			return fmt.Errorf("service: journal deletes unknown job %s", id)
		}
		if j.state != api.JobCompleted {
			return fmt.Errorf("service: journal deletes running job %s", id)
		}
		sh.mu.Lock()
		s.dropJobLocked(sh, j)
		sh.mu.Unlock()
	}

	// 5. Rebuild the monotone counters from carry + resident jobs, and the
	// arbiter's runnable set: every still-running job enters the heap with
	// its recovered tag, and its tenant's weight/running gauges return.
	// (Tenant record counts were anchored at materialization, before the
	// deletes above ran against them; in-flight counts stay zero: step 4
	// expired every recovered lease.)
	s.restoreCounters()
	for _, sh := range s.shards {
		for _, j := range sh.jobs {
			if j.state == api.JobRunning {
				t := s.coord.tenant(j.tenant)
				t.weight += int64(j.weight)
				t.running++
				s.coord.push(j)
			}
		}
	}
	// Sweep anchorless tenant states: replaying a set-then-revert opQuota
	// pair (or loading a legacy snapshot) can materialize tenants the live
	// process had already pruned, and recovery must not resurrect them.
	for name := range s.coord.tenants {
		s.coord.prune(name)
	}

	// 6. Compact: a fresh snapshot makes the next restart O(snapshot) and
	// clears the replayed tail. Skipped for a pristine data dir.
	if replayed > 0 || info.Torn || len(snap.Jobs) > 0 {
		s.snapMu.Lock()
		if err := s.snapshot(); err != nil {
			// Not fatal: the log keeps growing until a later snapshot
			// succeeds, which costs replay time but never correctness.
			fmt.Fprintf(os.Stderr, "gridschedd: post-recovery snapshot: %v\n", err)
		}
		s.snapMu.Unlock()
	}

	s.counters.ReplayRecords.Store(int64(replayed))
	s.counters.ReplayNanos.Store(time.Since(start).Nanoseconds())
	return nil
}

// restoreSnapJob materializes one snapshot entry as a resident job shell.
// Running jobs get their scheduler and stores in replayJob.
func (s *Service) restoreSnapJob(rs *recoveryState, sj *snapJob) error {
	if sj.State != api.JobRunning && sj.State != api.JobCompleted {
		return fmt.Errorf("service: snapshot job %s in state %q", sj.ID, sj.State)
	}
	j := &job{
		id:           sj.ID,
		name:         sj.Name,
		algorithm:    sj.Algorithm,
		seed:         sj.Seed,
		submissionID: sj.Submission,
		tenant:       sj.Tenant,
		weight:       normalizeWeight(sj.Weight, s.cfg.DefaultWeight),
		seq:          idNum(sj.ID),
		fair:         sj.Fair,
		heapIdx:      -1,
		tasks:        sj.Tasks,
		state:        sj.State,
		requires:     sj.Requires,
		deadlineMs:   sj.Deadline,
		submitted:    time.UnixMilli(sj.Submitted),
	}
	if sj.Finished != 0 {
		j.finished = time.UnixMilli(sj.Finished)
	}
	if sj.State == api.JobCompleted {
		j.dispatched, j.completed, j.failed = sj.Dispatched, sj.Completed, sj.Failed
		j.cancelled, j.expired, j.transfers = sj.Cancelled, sj.Expired, sj.Transfers
		j.speculated = sj.Speculated
	} else {
		if sj.Workload == nil {
			return fmt.Errorf("service: snapshot job %s running but has no workload", sj.ID)
		}
		j.w = sj.Workload
		j.ledger = sj.Ledger
		// Seed the open-grant timestamps from the snapshot ledger: a tail
		// success report's duration sample is measured from a grant the
		// snapshot may already carry. (Closed leases of completed snapshot
		// jobs lost their ledgers; a tail report on one folds without a
		// duration sample — the one corner where a recovered EWMA can lag
		// the uninterrupted one by a sample.)
		for i := 0; i < sj.Ledger.len(); i++ {
			e := sj.Ledger.at(i)
			k := grantKey{job: sj.ID, task: int32(e.Task), site: e.Site, worker: e.Worker}
			switch e.Op {
			case ledgerDispatch, ledgerSpecDispatch:
				rs.grants[k] = e.Ts
			default:
				delete(rs.grants, k)
			}
		}
	}
	s.addRecoveredJob(rs, j)
	return nil
}

// applyLogRecord folds one tail record into the job shells. Deletions are
// collected and applied after replay: a delete always refers to a job that
// completed earlier in the log, and completion is only known once the
// ledger has been replayed.
func (s *Service) applyLogRecord(rs *recoveryState, rec *record) error {
	switch rec.Op {
	case opSubmit:
		if rec.Workload == nil {
			return fmt.Errorf("service: submit record %s has no workload", rec.Job)
		}
		j := &job{
			id:           rec.Job,
			name:         rec.Name,
			algorithm:    rec.Algorithm,
			seed:         rec.Seed,
			submissionID: rec.Submission,
			tenant:       rec.Tenant,
			weight:       normalizeWeight(rec.Weight, s.cfg.DefaultWeight),
			seq:          idNum(rec.Job),
			fair:         s.coord.vtime, // exactly what admit gave it live
			heapIdx:      -1,
			tasks:        len(rec.Workload.Tasks),
			w:            rec.Workload,
			state:        api.JobRunning,
			requires:     rec.Requires,
			deadlineMs:   rec.Deadline,
			submitted:    time.UnixMilli(rec.Ts),
		}
		s.addRecoveredJob(rs, j)
	case opQuota:
		s.coord.tenant(rec.Tenant).quota = rec.Quota
	case opDispatch, opReport, opExpire:
		// Fold worker telemetry FIRST, before any early return: the record
		// exists, so the live process folded the observation when it wrote
		// it — even when the job is unknown or already completed here.
		ref := core.WorkerRef{Site: rec.Site, Worker: rec.Worker}
		gk := grantKey{job: rec.Job, task: int32(rec.Task), site: int32(rec.Site), worker: int32(rec.Worker)}
		switch {
		case rec.Op == opDispatch:
			rs.grants[gk] = rec.Ts
		case rec.Op == opReport && rec.Outcome == api.OutcomeSuccess:
			g, hasGrant := rs.grants[gk]
			delete(rs.grants, gk)
			s.tel.observeSuccess(ref, rec.Ts-g, hasGrant)
		default: // failure report or expiry
			delete(rs.grants, gk)
			s.tel.observeFailure(ref)
		}
		j := s.shardOf(rec.Job).jobs[rec.Job]
		if j == nil {
			// A report/expiry naming a job neither the snapshot nor the
			// tail knows is the trace of a cancelled replica that outlived
			// its deleted job, written by a pre-residency-guard binary;
			// there is nothing left to apply it to. A dispatch into an
			// unknown job, by contrast, can only be corruption.
			if rec.Op == opReport || rec.Op == opExpire {
				return nil
			}
			return fmt.Errorf("service: journal %s record for unknown job %s", rec.Op, rec.Job)
		}
		op := ledgerExpire
		switch {
		case rec.Op == opDispatch:
			op = ledgerDispatch
			s.bumpSeqFromID(rec.Assignment)
			if rec.Spec {
				// A speculative twin never charged the arbiter live; replay
				// must not either. The tenant's dispatch total did move.
				op = ledgerSpecDispatch
				s.coord.tenant(j.tenant).dispatches++
				break
			}
			// Re-apply the fair-share charge in log order: tags and the
			// virtual time floor end up bit-identical to the crashed
			// process (the live path appends dispatch records in charge
			// order, under the coordinator), so the recovered arbiter
			// makes the same choices an uninterrupted one would have.
			s.coord.charge(j)
			s.coord.tenant(j.tenant).dispatches++
		case rec.Op == opReport && rec.Outcome == api.OutcomeSuccess:
			op = ledgerSuccess
		case rec.Op == opReport:
			op = ledgerFailure
		}
		// Records for jobs the snapshot already saw completed are leftover
		// reports/expiries of cancelled replicas; only the counter survives.
		if j.state == api.JobCompleted {
			if op == ledgerDispatch || op == ledgerSpecDispatch {
				return fmt.Errorf("service: journal dispatches into completed job %s", j.id)
			}
			j.cancelled++
			return nil
		}
		j.ledger = j.ledger.add(ledgerRec{
			Op: op, Task: rec.Task, Site: int32(rec.Site), Worker: int32(rec.Worker), Ts: rec.Ts,
		})
	case opDelete:
		rs.deletes = append(rs.deletes, rec.Job)
	default:
		return fmt.Errorf("service: unknown journal op %q", rec.Op)
	}
	return nil
}

// replayJob rebuilds a running job's scheduler and stores and drives them
// through the job's ledger, mirroring the live mutation paths
// (tryJobLocked, Report, expireAssignmentLocked) event for event. Returns
// the number of ledger events replayed.
func (s *Service) replayJob(j *job) (int, error) {
	if err := j.w.Validate(); err != nil {
		return 0, err
	}
	if err := s.cfg.CheckWorkload(j.w); err != nil {
		return 0, err
	}
	sched, err := s.buildScheduler(j.algorithm, j.w, j.seed)
	if err != nil {
		return 0, err
	}
	j.sched = sched
	j.stores = nil
	for i := 0; i < s.cfg.Sites; i++ {
		st, err := storage.New(s.cfg.CapacityFiles, s.cfg.Policy)
		if err != nil {
			return 0, err
		}
		st.Reserve(j.w.NumFiles)
		j.stores = append(j.stores, st)
		sched.AttachSite(i)
	}
	if len(j.w.Tasks) == 0 {
		s.completeJobReplay(j, j.submitted.UnixMilli())
		return 0, nil
	}

	open := make(map[openKey]*openExec)
	// Completion mid-replay releases j.ledger; the events still to come
	// (reports of cancelled replicas) replay from this copy of the header.
	ledger := j.ledger
	for i, n := 0, ledger.len(); i < n; i++ {
		if err := s.replayEvent(j, ledger.at(i), open); err != nil {
			return i, fmt.Errorf("ledger event %d/%d: %w", i, n, err)
		}
	}

	// Expire everything still in flight: the workers holding those leases
	// predate the restart. Journaled like a live expiry so a second crash
	// replays the same way.
	if len(open) > 0 && j.state == api.JobRunning {
		now := s.now().UnixMilli()
		keys := make([]openKey, 0, len(open))
		for k := range open {
			keys = append(keys, k)
		}
		// Deterministic order (map iteration is not): by task, site, worker.
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].task != keys[b].task {
				return keys[a].task < keys[b].task
			}
			if keys[a].site != keys[b].site {
				return keys[a].site < keys[b].site
			}
			return keys[a].worker < keys[b].worker
		})
		for _, k := range keys {
			e := ledgerRec{Op: ledgerExpire, Task: workload.TaskID(k.task), Site: k.site, Worker: k.worker, Ts: now}
			s.mustAppend(&record{
				Op: opExpire, Ts: now, Job: j.id,
				Task: e.Task, Site: int(k.site), Worker: int(k.worker),
			})
			j.ledger = j.ledger.add(e)
			// These are fresh journal records, so fold them into telemetry
			// like any live expiry — the post-recovery snapshot covers them.
			s.tel.observeFailure(core.WorkerRef{Site: int(k.site), Worker: int(k.worker)})
			if err := s.replayEvent(j, e, open); err != nil {
				return j.ledger.len(), err
			}
			s.counters.RecoveredExpired.Add(1)
		}
	}
	return j.ledger.len(), nil
}

// replayEvent applies one ledger event, keeping open in sync with what the
// live assignment table would have held.
func (s *Service) replayEvent(j *job, e ledgerRec, open map[openKey]*openExec) error {
	key := openKey{task: int32(e.Task), site: e.Site, worker: e.Worker}
	ref := core.WorkerRef{Site: int(e.Site), Worker: int(e.Worker)}
	switch e.Op {
	case ledgerDispatch, ledgerSpecDispatch:
		if j.state != api.JobRunning || j.sched == nil {
			return fmt.Errorf("dispatch of task %d into %s job", e.Task, j.state)
		}
		if int(e.Task) < 0 || int(e.Task) >= len(j.w.Tasks) {
			return fmt.Errorf("dispatch of unknown task %d", e.Task)
		}
		if ref.Site < 0 || ref.Site >= s.cfg.Sites || ref.Worker < 0 || ref.Worker >= s.cfg.WorkersPerSite {
			return fmt.Errorf("dispatch at %+v outside the configured pool", ref)
		}
		if open[key] != nil {
			return fmt.Errorf("task %d already in flight at %+v", e.Task, ref)
		}
		schedRef := ref
		if e.Op == ledgerSpecDispatch {
			// A twin was granted above the scheduler: no ReplayAssign. Its
			// schedRef is the live primary's ref, re-derived by the same
			// deterministic rule the grant used — lowest (site, worker)
			// among the task's open non-speculative executions.
			found := false
			for k, o := range open {
				if k.task != int32(e.Task) || o.spec || o.cancelled {
					continue
				}
				r := core.WorkerRef{Site: int(k.site), Worker: int(k.worker)}
				if !found || r.Site < schedRef.Site ||
					(r.Site == schedRef.Site && r.Worker < schedRef.Worker) {
					schedRef, found = r, true
				}
			}
			if !found {
				return fmt.Errorf("speculative dispatch of task %d with no live primary", e.Task)
			}
		} else if err := replayAssignSched(j.sched, e.Task, ref); err != nil {
			return err
		}
		sh := s.shardOf(j.id)
		task := j.w.Tasks[e.Task]
		fetched, evicted, err := j.stores[ref.Site].CommitBatchInto(task.Files, sh.fetchBuf[:0], sh.evictBuf[:0])
		if err != nil {
			return fmt.Errorf("stage task %d at site %d: %w", e.Task, ref.Site, err)
		}
		sh.fetchBuf, sh.evictBuf = fetched[:0], evicted[:0]
		j.sched.NoteBatch(ref.Site, task.Files, fetched, evicted)
		j.transfers += int64(len(fetched))
		j.dispatched++
		if e.Op == ledgerSpecDispatch {
			j.speculated++
		}
		open[key] = &openExec{spec: e.Op == ledgerSpecDispatch, schedRef: schedRef}
	case ledgerSuccess, ledgerFailure, ledgerExpire:
		o := open[key]
		if o == nil {
			return fmt.Errorf("%d on task %d at %+v with no open execution", e.Op, e.Task, ref)
		}
		delete(open, key)
		switch {
		case o.cancelled:
			j.cancelled++
		case e.Op == ledgerSuccess:
			victims := j.sched.OnTaskComplete(e.Task, o.schedRef)
			j.completed++
			for _, v := range victims {
				vk := openKey{task: int32(e.Task), site: int32(v.Site), worker: int32(v.Worker)}
				if vo := open[vk]; vo != nil {
					vo.cancelled = true
				}
			}
			// First-report-wins blanket cancel, mirroring applyReportLocked:
			// every other open execution of the task is obsolete.
			for k2, o2 := range open {
				if k2.task == int32(e.Task) && !o2.cancelled {
					o2.cancelled = true
				}
			}
			if j.sched.Remaining() == 0 {
				s.completeJobReplay(j, e.Ts)
				// Mirror completeJobLocked's cancellation sweep: whatever is
				// still in flight is an obsolete replica.
				for _, vo := range open {
					vo.cancelled = true
				}
			}
		case e.Op == ledgerFailure:
			j.failed++
			if j.sched != nil && !openSibling(open, int32(e.Task), o.schedRef) {
				j.sched.OnExecutionFailed(e.Task, o.schedRef)
			}
		default: // ledgerExpire
			j.expired++
			if j.sched != nil && !openSibling(open, int32(e.Task), o.schedRef) {
				j.sched.OnExecutionFailed(e.Task, o.schedRef)
			}
		}
	default:
		return fmt.Errorf("unknown ledger op %d", e.Op)
	}
	return nil
}

// openSibling mirrors liveSiblingLocked for replay: another open,
// non-cancelled execution of the task shares schedRef, so the failed or
// expired half of a primary/twin pair must not requeue the task.
func openSibling(open map[openKey]*openExec, task int32, schedRef core.WorkerRef) bool {
	for k, o := range open {
		if k.task == task && !o.cancelled && o.schedRef == schedRef {
			return true
		}
	}
	return false
}

// completeJobReplay is completeJobLocked minus the live-only concerns
// (broadcast, arbiter retirement, counters — rebuilt afterwards).
func (s *Service) completeJobReplay(j *job, tsMillis int64) {
	j.state = api.JobCompleted
	j.finished = time.UnixMilli(tsMillis)
	j.w, j.sched, j.stores, j.ledger = nil, nil, nil, nil
}

// addRecoveredJob registers a job shell during recovery: into its shard,
// the submission index, the replay order, and its tenant's record count.
// The record is anchored HERE, at materialization — not in the post-replay
// sweep — so a journal-tail delete (dropJobLocked, which decrements)
// always runs against a count that included the job, exactly as the live
// path does; counting later would drive the tenant negative and defeat
// pruning forever.
func (s *Service) addRecoveredJob(rs *recoveryState, j *job) {
	if j.state == api.JobRunning && j.deadlineMs > 0 && s.now().UnixMilli() >= j.deadlineMs {
		j.urgent.Store(true) // sweeps refine this; seed the overdue case now
	}
	s.shardOf(j.id).jobs[j.id] = j
	if j.submissionID != "" {
		s.coord.submissions[j.submissionID] = j.id
	}
	s.coord.tenant(j.tenant).records++
	rs.order = append(rs.order, j)
	s.bumpSeqFromID(j.id)
}

// restoreCounters rebuilds the monotone /metrics totals as carry (deleted
// jobs) plus the resident jobs. Process-local series — pulls, heartbeats,
// dispatch latency, stale reports — restart at zero.
func (s *Service) restoreCounters() {
	c := s.pst.carry
	open := int64(0)
	for _, sh := range s.shards {
		for _, j := range sh.jobs {
			c.Jobs++
			if j.state == api.JobCompleted {
				c.CompletedJobs++
			} else {
				open++
			}
			c.Dispatched += int64(j.dispatched)
			c.Completions += int64(j.completed)
			c.Failures += int64(j.failed)
			c.Cancellations += int64(j.cancelled)
			c.Expired += int64(j.expired)
			c.Speculated += int64(j.speculated)
		}
	}
	s.counters.JobsSubmitted.Store(c.Jobs)
	s.counters.JobsCompleted.Store(c.CompletedJobs)
	s.counters.Assignments.Store(c.Dispatched)
	s.counters.Completions.Store(c.Completions)
	s.counters.Failures.Store(c.Failures)
	s.counters.Cancellations.Store(c.Cancellations)
	s.counters.LeasesExpired.Store(c.Expired)
	s.counters.SpeculativeDispatches.Store(c.Speculated)
	s.counters.OpenJobs.Store(open)
}

// idNum extracts the numeric part of a "j<n>"/"a<n>" id (0 when the id
// does not parse). For jobs it doubles as the arbiter's deterministic
// tie-breaker AND the shard routing key: it is the submission sequence
// number, so consecutively submitted jobs round-robin across stripes.
func idNum(id string) int64 {
	if len(id) < 2 {
		return 0
	}
	n := int64(0)
	for _, r := range id[1:] {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int64(r-'0')
	}
	return n
}

// bumpSeqFromID raises the id sequence above a recovered "j<n>"/"a<n>" id
// so freshly minted ids never collide with journaled ones. (Worker ids
// carry a per-process nonce instead: registrations are not journaled, so
// their ids cannot be recovered this way.) Recovery is single-threaded,
// so the load/store pair cannot race.
func (s *Service) bumpSeqFromID(id string) {
	if n := idNum(id); n > s.seq.Load() {
		s.seq.Store(n)
	}
}
