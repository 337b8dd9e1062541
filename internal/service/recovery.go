// Recovery rebuilds a Service from Config.DataDir: load the checkpoint,
// apply the write-ahead log tail on top of it, and every running job's
// scheduler, site stores, and counters are exactly as the crashed process
// left them.
//
// Scheduler state is reconstructed by *command replay*, not
// deserialization: the factory rebuilds the scheduler from (algorithm,
// workload, seed) — fully deterministic — and the job's history drives it
// through the same dispatch/complete/fail sequence the original instance
// saw. That reproduces internal state the schedulers could never
// serialize portably, in particular the ChooseTask(n) RNG stream: a
// recovered worker-centric scheduler makes the same future random draws an
// uninterrupted run would have made.
//
// Replay is not a second implementation of the live paths. Each journaled
// event goes through the one apply the live path put it through
// (jobstate.go), with ReplayAssign standing in for the NextFor that decided
// it: a checkpointed job's ledger first, then the log tail record by
// record in LSN order — the order worker telemetry and the arbiter's
// charges depend on. A standby (follower.go) opens its data dir with the
// same open and applies each streamed frame with the same applyRecord, over
// a state with no scheduler factory.
//
// A checkpointed ledger is folded where it can be, re-asked where it cannot.
// Re-asking puts every recorded dispatch to the scheduler again (NextFor,
// then the incremental index update of its batch) and fails unless the
// scheduler decides what the ledger says. Folding — when the scheduler is a
// core.BulkReplayer and the checkpoint recorded where the ledger left its
// random stream (snapJob.Draws) — sends the same events through the same
// replay → apply between BeginReplay and EndReplay: the scheduler commits
// each dispatch without deciding it, and derives its indexes and the
// stream's position once at the end. What a fold checks: replay's bounds on
// task, site and worker, its refusal of a ledger that completes a running
// job, apply's execution table (no slot runs a task twice, no report without
// an open execution), that every dispatched task was pending, and that the
// draw count is one the ledger could have reached. What it does not: that
// the scheduler would have made those decisions. The log tail still does —
// every tail dispatch is re-asked, of the folded state, and compared with
// its record — so a fold that rebuilt the wrong scheduler fails the
// recovery at the first decision it gets wrong rather than serving it.
// A standby's manifest (no draws), other schedulers and decorated ones
// (context:…) take the re-ask path; nothing selects between the two but
// what the checkpoint and the scheduler offer.
//
// Worker registrations and leases are NOT recovered — they are liveness
// state about processes that may not have survived the outage. Every
// execution open at crash time is expired through the same apply
// (journaled, so a second crash replays identically), and workers
// re-register on their next pull; the client loop does this transparently.
//
// Recovery runs from New, before the sweeper starts and before the service
// is reachable, so nothing but recovery touches the state and restore
// takes no lock. It is serial wherever order is observable and concurrent
// where it is not:
//
//   - Serial, in manifest order: tenants, worker telemetry, and every job's
//     shell — its counters, its place in the job table and the submission
//     index, its admission to the arbiter under its checkpointed tag, the
//     id sequence. These are shared structures, and the arbiter's heap and
//     the sequence depend on the order they are filled in.
//   - Concurrent, one job per goroutine: a running job's rebuild — read and
//     decode its workload file, validate, build the scheduler and stores —
//     and its checkpointed ledger through replay. All of that writes the
//     job and nothing else: a ledger event is not fresh, so apply neither
//     folds telemetry nor appends; it cannot complete the job (replay
//     refuses a ledger that would, since the checkpoint lists the job as
//     running), so the arbiter is never touched; and the staging scratch
//     is the goroutine's own, not the service's. Config.NewScheduler and
//     Config.CheckWorkload are called from several goroutines at once — as
//     concurrent live submits already call them.
//   - Serial again, in LSN order: the log tail, the expiry of what was in
//     flight, the counters and the compaction. Tail records fold telemetry
//     and charge the arbiter, both order-dependent; the tail is bounded by
//     Config.SnapshotEvery, the restore by resident jobs ÷ cores.
package service

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/partition"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// open loads DataDir into a fresh state and opens its journal: what a
// leader and a standby both start from. With a scheduler factory every
// running job comes back with its scheduler rebuilt and replayed; without
// one — a standby's replica — the same steps leave shells. stale says the
// dir held something a fresh checkpoint would compact.
func (s *Service) open() (stale bool, err error) {
	if err := journal.MkdirAll(s.pst.dir); err != nil {
		return false, err
	}

	// 1. Checkpoint: the manifest, then a sweep of whatever a crash
	// mid-checkpoint (or mid catch-up) stranded — temp files, and workload
	// files the manifest does not rely on (written ahead of a manifest that
	// never landed, or outliving one that retired them). Without the sweep
	// every such crash leaks a file forever. The workload files it does rely
	// on are read by restore, each as part of its job's rebuild.
	snap, err := readManifest(s.pst.dir)
	if err != nil {
		return false, err
	}
	s.pst.stored = snap.storedJobs()
	if err := sweepDataDir(s.pst.dir, s.pst.stored); err != nil {
		return false, err
	}
	if snap == nil {
		// Fresh data dir: an empty checkpoint of this partition, at the
		// partition-seeded sequence newState installed.
		snap = &snapshot{
			Seq:            s.seq.Load(),
			PartitionIndex: s.cfg.PartitionIndex, PartitionCount: s.cfg.PartitionCount,
		}
	}
	s.phase(metrics.ReplayCheckpoint)

	// 2. Restore: every resident job, the running ones rebuilt and replayed
	// side by side.
	replayed, err := s.restore(snap, s.pst.dir)
	if err != nil {
		return false, err
	}
	s.phase(metrics.ReplayRestore)

	// 3. Log tail: the records the checkpoint does not cover, each applied
	// as it is read. Then the writer opens over the validated prefix
	// (truncating any torn tail): every append from here on — a leader's
	// expiry records, a standby's streamed frames — goes through it.
	info, err := journal.ReadLog(s.walPath(), snap.LastLSN, s.applyFrame)
	if err != nil {
		return false, err
	}
	if err := s.openJournal(max(snap.LastLSN, info.LastLSN), info.ValidSize); err != nil {
		return false, err
	}
	// The tail counts towards the next checkpoint: a leader compacts it away
	// before it serves, a standby must not carry it a whole interval further.
	s.pst.sinceSnapshot.Store(int64(info.Records))
	s.counters.ReplayRecords.Store(int64(replayed + info.Records))
	s.phase(metrics.ReplayTail)
	return info.Records > 0 || info.Torn || len(snap.Jobs) > 0, nil
}

// openJournal opens the log writer at position last over the log's first
// validSize bytes (0 resets the file to a fresh empty log).
func (s *Service) openJournal(last uint64, validSize int64) error {
	w, err := journal.OpenWriter(s.walPath(), s.cfg.Fsync, fsyncInterval, last, validSize, s.jmet)
	if err != nil {
		return err
	}
	s.pst.w = w
	return nil
}

// phase closes the recovery phase that just ran: its share of the restart
// goes to /metrics and gridschedd's startup log line.
func (s *Service) phase(p metrics.ReplayPhase) {
	now := time.Now()
	s.counters.ReplayPhaseNanos[p].Store(now.Sub(s.pst.mark).Nanoseconds())
	s.pst.mark = now
}

// recover makes a leader of DataDir: open, then the two steps only a
// leader takes. Called from New, before the sweeper starts and before the
// service is reachable.
func (s *Service) recover() error {
	start := s.pst.mark
	stale, err := s.open()
	if err != nil {
		return err
	}

	// 4. Expire whatever is still in flight: the workers holding those
	// leases predate the restart. Then rebuild the monotone counters from
	// carry + resident jobs. (The arbiter's runnable set and the tenants'
	// gauges came back as the jobs did; in-flight counts stay zero: every
	// recovered lease was just expired.)
	n, err := s.expireRecovered()
	if err != nil {
		return err
	}
	s.counters.ReplayRecords.Add(int64(n))
	s.restoreCounters()
	s.phase(metrics.ReplayExpire)

	// 5. Compact: a fresh snapshot makes the next restart O(snapshot) and
	// clears the replayed tail. Skipped for a pristine data dir.
	if stale || n > 0 {
		s.snapMu.Lock()
		if err := s.snapshot(); err != nil {
			// Not fatal: the log keeps growing until a later snapshot
			// succeeds, which costs replay time but never correctness.
			fmt.Fprintf(os.Stderr, "gridschedd: post-recovery snapshot: %v\n", err)
		}
		s.snapMu.Unlock()
	}
	s.phase(metrics.ReplayCompact)

	s.counters.ReplayNanos.Store(s.pst.mark.Sub(start).Nanoseconds())
	return nil
}

// restore loads a checkpoint into a fresh state: the id sequence and the
// carry, the arbiter's virtual time and per-tenant durable state, the worker
// telemetry (fixed-point accumulators, bit-exact), and every resident job.
// Tail records then charge, fold and apply on top in LSN order, exactly as
// the live paths did. dir is where the workload files of running jobs that
// snap does not carry inline are read from; "" says snap is self-contained
// (a replication message). Returns the number of ledger events replayed.
//
// Partition identity first: ids in the checkpoint were minted in its
// partition's residue class, and any other identity would mis-route them
// all. Then two phases (the file header has the why): every job's shell,
// serially in manifest order; then every running job's rebuild and ledger
// replay, each job on one goroutine, as many at once as there are cores.
func (s *Service) restore(snap *snapshot, dir string) (int, error) {
	if snap.PartitionIndex != s.cfg.PartitionIndex || snap.PartitionCount != s.cfg.PartitionCount {
		return 0, fmt.Errorf("service: checkpoint belongs to partition %d of %d, configured as %d of %d (re-partitioning needs a migration, not a restart)",
			snap.PartitionIndex, snap.PartitionCount, s.cfg.PartitionIndex, s.cfg.PartitionCount)
	}
	s.seq.Store(snap.Seq)
	s.pst.carry = snap.Carry
	s.arb.vtime = snap.VTime
	for _, st := range snap.Tenants {
		t := s.arb.tenant(st.Name)
		t.quota, t.dispatches = st.Quota, st.Dispatches
	}
	s.tel.restoreWorkers(snap.Workers)
	events := 0
	var running []restoring
	for i := range snap.Jobs {
		sj := &snap.Jobs[i]
		j, err := s.restoreShell(sj)
		if err != nil {
			return events, sj.wrap(err)
		}
		events += sj.Ledger.len()
		if j.state == api.JobRunning {
			running = append(running, restoring{j: j, sj: sj})
		}
	}
	// A checkpoint can list a tenant whose last job went with a lease still
	// out (pruned live when the lease ends); recovery must not keep it.
	for name := range s.arb.tenants {
		s.arb.prune(name)
	}
	return events, s.restoreRunning(running, dir)
}

// wrap names the checkpoint entry an error came from.
func (sj *snapJob) wrap(err error) error {
	return fmt.Errorf("service: snapshot job %s (%s): %w", sj.Job, sj.Algorithm, err)
}

// restoring is one running job between the two phases of restore: its
// shell is resident, its scheduler not yet rebuilt. err is what the second
// phase made of it.
type restoring struct {
	j   *job
	sj  *snapJob
	err error
}

// restoreShell materializes one checkpoint entry as far as anything outside
// the job can see it: a completed job whole, as its summary; a running job
// as a shell in the job table, the submission index and the arbiter. A
// running job keeps the ledger it came with — its events are not fresh.
func (s *Service) restoreShell(sj *snapJob) (*job, error) {
	if sj.State != api.JobRunning && sj.State != api.JobCompleted {
		return nil, fmt.Errorf("in state %q", sj.State)
	}
	j := s.newJob(&sj.record, sj.Tasks)
	j.state = sj.State
	if sj.Finished != 0 {
		j.finished = time.UnixMilli(sj.Finished)
	}
	if sj.State == api.JobCompleted {
		if sj.Ledger.len() > 0 {
			return nil, fmt.Errorf("completed but carries a %d-event ledger", sj.Ledger.len())
		}
		j.dispatched, j.completed, j.failed = sj.Dispatched, sj.Completed, sj.Failed
		j.cancelled, j.expired, j.transfers = sj.Cancelled, sj.Expired, sj.Transfers
		j.speculated = sj.Speculated
	} else if s.pst != nil {
		j.ledger = sj.Ledger
	}
	s.addJobLocked(j, sj.Fair)
	s.bumpSeqFromID(j.id)
	return j, nil
}

// restoreRunning is restore's second phase: every running job's rebuild
// and ledger replay, on min(GOMAXPROCS, jobs) goroutines that take the
// jobs longest ledger first, so the last goroutine to finish was not
// handed the biggest job last. Every job is attempted whatever happens to
// the others, and the error reported is the one earliest in the manifest:
// the same one however the jobs were interleaved.
func (s *Service) restoreRunning(running []restoring, dir string) error {
	order := make([]*restoring, len(running))
	for i := range running {
		order[i] = &running[i]
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(order[a].sj.Ledger) > len(order[b].sj.Ledger)
	})
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), len(order)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st staging
			for n := next.Add(1) - 1; n < int64(len(order)); n = next.Add(1) - 1 {
				r := order[n]
				r.err = s.restoreRunningJob(&st, dir, r.j, r.sj)
			}
		}()
	}
	wg.Wait()
	for i := range running {
		if r := &running[i]; r.err != nil {
			return r.sj.wrap(r.err)
		}
	}
	return nil
}

// restoreRunningJob is everything about restoring a running job that
// touches only the job: its workload, its scheduler and stores, and its
// checkpointed ledger through replay.
func (s *Service) restoreRunningJob(st *staging, dir string, j *job, sj *snapJob) error {
	w := sj.Workload
	if w == nil {
		if dir == "" {
			return fmt.Errorf("running but has no workload")
		}
		var err error
		if w, err = loadWorkload(dir, sj); err != nil {
			return err
		}
	}
	if err := s.rebuild(j, w); err != nil {
		return err
	}
	// Fold when the scheduler offers the mode and the checkpoint says where
	// the ledger left its random stream; else every dispatch is re-asked.
	// Either way each event takes replay → apply: inside a bulk replay the
	// scheduler's side of those calls just costs less.
	fold, _ := j.sched.(core.BulkReplayer)
	if sj.Draws == nil {
		fold = nil
	}
	if fold != nil {
		fold.BeginReplay()
	}
	n := sj.Ledger.len()
	for i := 0; i < n; i++ {
		if err := s.replay(st, j, sj.Ledger.at(i), false); err != nil {
			return fmt.Errorf("ledger event %d/%d: %w", i, n, err)
		}
	}
	switch {
	case fold != nil:
		if err := fold.EndReplay(*sj.Draws); err != nil {
			return fmt.Errorf("ledger of %d events: %w", n, err)
		}
		s.counters.ReplayFolded.Add(int64(n))
	case j.sched != nil:
		s.counters.ReplayReasked.Add(int64(n))
	}
	return nil
}

// rebuild attaches a freshly built scheduler and stores to a recovered
// running job. A state with no scheduler factory — a standby — keeps the
// bare shell, and does not hold on to the workload.
func (s *Service) rebuild(j *job, w *workload.Workload) error {
	if s.cfg.NewScheduler == nil {
		return nil
	}
	if err := w.Validate(); err != nil {
		return err
	}
	if err := s.cfg.CheckWorkload(w); err != nil {
		return err
	}
	sched, err := s.buildScheduler(j.algorithm, w, j.seed)
	if err != nil {
		return err
	}
	s.attach(j, w, sched)
	return nil
}

// applyFrame decodes one journal frame and applies it (journal.ReadLog's
// callback shape).
func (s *Service) applyFrame(lsn uint64, payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return fmt.Errorf("service: journal record %d: %w", lsn, err)
	}
	return s.applyRecord(&rec)
}

// applyRecord applies one journal record to the state, in log order, under
// s.mu, as the live path that wrote it did: a standby applies streamed
// records under readers. On a recovery tail nothing else can see the state
// yet.
func (s *Service) applyRecord(rec *record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.Op {
	case opSubmit:
		if rec.Workload == nil {
			return fmt.Errorf("service: submit record %s has no workload", rec.Job)
		}
		if p, ok := partition.Owner(rec.Job, s.cfg.PartitionCount); !ok || p != s.cfg.PartitionIndex {
			return fmt.Errorf("service: submit record %s belongs to partition %d of %d, configured as %d of %d (re-partitioning needs a migration, not a restart)",
				rec.Job, p, s.cfg.PartitionCount, s.cfg.PartitionIndex, s.cfg.PartitionCount)
		}
		j := s.newJob(rec, len(rec.Workload.Tasks))
		if err := s.rebuild(j, rec.Workload); err != nil {
			return fmt.Errorf("service: replay job %s (%s): %w", j.id, j.algorithm, err)
		}
		if j.sched == nil {
			// A standby's shell: the record is the only copy of the workload
			// until a checkpoint has stored it (checkpointLocked lets go).
			j.w = rec.Workload
		}
		s.addJobLocked(j, s.arb.vtime) // exactly the tag admission gave it live
		s.bumpSeqFromID(j.id)
		if j.tasks == 0 {
			s.completeJob(j, rec.Ts)
		}
	case opQuota:
		s.arb.tenant(rec.Tenant).quota = rec.Quota
		s.arb.prune(rec.Tenant)
	case opDelete:
		j := s.jobs[rec.Job]
		if j == nil {
			return fmt.Errorf("service: journal deletes unknown job %s", rec.Job)
		}
		if j.state != api.JobCompleted {
			return fmt.Errorf("service: journal deletes running job %s", rec.Job)
		}
		s.dropJobLocked(j)
	case opDispatch, opReport, opExpire:
		j := s.jobs[rec.Job]
		if j == nil {
			return fmt.Errorf("service: journal %s record for unknown job %s", rec.Op, rec.Job)
		}
		if rec.Op == opDispatch {
			s.bumpSeqFromID(rec.Assignment)
			// Re-apply the fair-share charge in log order: tags and the
			// virtual time floor end up bit-identical to the crashed
			// process (the live path appends dispatch records in charge
			// order), so the recovered arbiter makes the same choices an
			// uninterrupted one would have. A speculative twin never charged
			// the arbiter live; replay must not either.
			s.arb.tenant(j.tenant).dispatches++
			if !rec.Spec {
				s.arb.charge(j)
			}
		}
		if j.sched != nil {
			s.counters.ReplayReasked.Add(1)
		}
		if err := s.replay(&s.stage, j, rec.event(), true); err != nil {
			return fmt.Errorf("service: replay job %s (%s): %w", j.id, j.algorithm, err)
		}
	default:
		return fmt.Errorf("service: unknown journal op %q", rec.Op)
	}
	return nil
}

// replay applies one journaled event to j. The journal is outside input,
// so a dispatch's coordinates are bounds-checked before anything indexes
// with them; then the recorded decision is forced on the scheduler —
// ReplayAssign in place of NextFor (which re-asks, or inside a fold just
// commits), nothing for a twin, which was granted above the scheduler —
// and the event takes the live path's apply.
//
// An event that is not fresh comes from the checkpointed ledger of a job
// the checkpoint lists as running, so it cannot be the one that completes
// the job; one that would is refused before apply reaches completeJob —
// the only step of apply that leaves the job, which restore's concurrent
// phase relies on never happening.
func (s *Service) replay(st *staging, j *job, e ledgerRec, fresh bool) error {
	ref := core.WorkerRef{Site: int(e.Site), Worker: int(e.Worker)}
	if e.Op == ledgerDispatch || e.Op == ledgerSpecDispatch {
		if int(e.Task) < 0 || int(e.Task) >= j.tasks {
			return fmt.Errorf("dispatch of unknown task %d", e.Task)
		}
		if ref.Site < 0 || ref.Site >= s.cfg.Sites || ref.Worker < 0 || ref.Worker >= s.cfg.WorkersPerSite {
			return fmt.Errorf("dispatch at %+v outside the configured pool", ref)
		}
		if e.Op == ledgerDispatch && j.sched != nil {
			if err := core.ReplayAssign(j.sched, e.Task, ref); err != nil {
				return err
			}
		}
	}
	if !fresh && e.Op == ledgerSuccess && j.remaining() == 1 {
		if x := j.find(e.Task, ref); x != nil && !x.cancelled {
			return fmt.Errorf("success of task %d completes a job the checkpoint lists as running", e.Task)
		}
	}
	_, err := s.apply(st, j, e, fresh)
	return err
}

// expireRecovered expires every execution still open after replay,
// journaled like a live expiry so a second crash replays the same way, and
// returns how many. Deterministic order (map iteration is not): jobs in
// submission order, executions by task, site, worker. A completed job's
// leftovers are cancelled replicas nobody will report for; they just go.
func (s *Service) expireRecovered() (int, error) {
	var jobs []*job
	for _, j := range s.jobs {
		if j.state == api.JobRunning && len(j.execs) > 0 {
			jobs = append(jobs, j)
		}
		if j.state == api.JobCompleted {
			j.execs = nil
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	now := s.now().UnixMilli()
	expired := 0
	for _, j := range jobs {
		var open []*exec
		for _, x := range j.execs {
			for ; x != nil; x = x.next {
				open = append(open, x)
			}
		}
		sort.Slice(open, func(a, b int) bool {
			if open[a].task != open[b].task {
				return open[a].task < open[b].task
			}
			if open[a].ref.Site != open[b].ref.Site {
				return open[a].ref.Site < open[b].ref.Site
			}
			return open[a].ref.Worker < open[b].ref.Worker
		})
		for _, x := range open {
			rec := &record{
				Op: opExpire, Ts: now, Job: j.id,
				Task: x.task, Site: int32(x.ref.Site), Worker: int32(x.ref.Worker),
			}
			s.mustAppend(rec)
			// Not through applyRecord: this event is new, not replayed.
			if err := s.replay(&s.stage, j, rec.event(), true); err != nil {
				return expired, fmt.Errorf("service: expire job %s (%s): %w", j.id, j.algorithm, err)
			}
			s.counters.RecoveredExpired.Add(1)
			expired++
		}
	}
	return expired, nil
}

// restoreCounters rebuilds the monotone /metrics totals as carry (deleted
// jobs) plus the resident jobs. Process-local series — pulls, heartbeats,
// dispatch latency, stale reports — restart at zero.
func (s *Service) restoreCounters() {
	c := s.pst.carry
	open := int64(0)
	for _, j := range s.jobs {
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
// tie-breaker: it is the submission sequence number.
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
// their ids cannot be recovered this way.) Only recovery's serial steps
// call it — a job's shell, a tail record — never a running job's
// concurrent rebuild, so the load/store pair cannot race.
func (s *Service) bumpSeqFromID(id string) {
	if n := idNum(id); n > s.seq.Load() {
		s.seq.Store(n)
	}
}
