package service

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service/api"
)

// persistence is the journaling state of a Service with Config.DataDir
// set. carry is guarded by the service lock; sinceSnapshot is
// atomic; w orders appends itself; stored and atStep belong to the
// checkpoint path and are guarded by snapMu.
type persistence struct {
	dir           string
	w             *journal.Writer
	carry         carryCounters
	sinceSnapshot atomic.Int64 // records appended since the last snapshot
	// stored lists the running jobs whose workload file is durable in dir,
	// so each checkpoint writes only the files of jobs new since the last.
	stored map[string]struct{}
	// atStep, when set, is told each checkpoint step boundary as it is
	// reached; an error abandons the checkpoint right there. Tests set it
	// to die between steps — nothing else does.
	atStep func(step string) error
	// mark is when the current recovery phase began; the first, with the state.
	mark time.Time
}

// Checkpoint step boundaries, in order (see Service.snapshot).
const (
	stepWorkloadsSaved  = "workloads-saved"  // new workload files durable, manifest untouched
	stepManifestRenamed = "manifest-renamed" // manifest durable, journal not yet rotated
	stepJournalRotated  = "journal-rotated"  // journal rotated, retired workload files still present
)

func (p *persistence) reached(step string) error {
	if p.atStep == nil {
		return nil
	}
	return p.atStep(step)
}

func (s *Service) walPath() string { return filepath.Join(s.pst.dir, walFile) }

// appendRecord journals rec. Callers hold s.mu, the lock that owns rec's
// state change; the returned LSN is what waitDurable (outside every lock)
// keys on. An error leaves service state untouched, so callers that can
// abort cleanly (submit, report, delete) surface it to the client. The
// append-then-apply pair always sits inside one hold of s.mu, which the
// checkpoint also holds, so a snapshot can never claim (via LastLSN) to
// cover a record whose effect it does not contain.
//
// Not for a submit: that one record is big enough that encoding it inside
// the critical section would stall everyone else, so submitJob encodes
// ahead and calls appendEncoded. Every other record is a few dozen bytes,
// encoded here into a stack buffer.
func (s *Service) appendRecord(rec *record) (uint64, error) {
	var buf [maxLeaseRecordLen]byte
	return s.appendEncoded(rec.appendTo(buf[:0]))
}

// appendEncoded journals payloads encoded ahead of time — a submit, or a
// batch of reports — as one contiguous WAL append (consecutive LSNs, one
// write(2) — see journal.Writer.Append), returning the first LSN.
// All-or-nothing: on error nothing was appended, so the caller may abort
// without applying any of the group. Like appendRecord, call while holding
// s.mu.
func (s *Service) appendEncoded(payloads ...[]byte) (uint64, error) {
	first, err := s.pst.w.Append(payloads...)
	if errors.Is(err, journal.ErrRecordTooLarge) {
		return 0, errf(http.StatusRequestEntityTooLarge, "service: %v", err)
	}
	if err != nil {
		return 0, errf(503, "service: journal append: %v", err)
	}
	s.pst.sinceSnapshot.Add(int64(len(payloads)))
	return first, nil
}

// mustAppend journals rec on a path that cannot abort (the state change
// already happened, or must happen — dispatch after NextFor, lease expiry
// past its deadline). A journal failure there is fail-stop: better to
// crash and recover from the last durable state than to let memory and
// log diverge. The one tolerated error is the closed writer — the
// shutdown path stops journaling before in-flight requests drain, and
// recovery re-derives whatever the lost records described (all open
// leases expire at startup).
func (s *Service) mustAppend(rec *record) uint64 {
	lsn, err := s.appendRecord(rec)
	if err != nil {
		if s.closed.Load() {
			return 0
		}
		panic(fmt.Sprintf("service: write-ahead journal failed: %v", err))
	}
	return lsn
}

// waitDurable blocks until the record at lsn is durable per the configured
// fsync mode. Call without holding any service lock.
func (s *Service) waitDurable(lsn uint64) error {
	if s.pst == nil || lsn == 0 {
		return nil
	}
	if err := s.pst.w.WaitDurable(lsn); err != nil {
		return errf(503, "service: journal sync: %v", err)
	}
	return nil
}

// snapshotIfDue snapshots once enough records accumulated. Callers must
// hold no service lock: the snapshot's middle step holds s.mu.
func (s *Service) snapshotIfDue() {
	if s.pst == nil || s.pst.sinceSnapshot.Load() < int64(s.cfg.SnapshotEvery) {
		return
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.pst.sinceSnapshot.Load() < int64(s.cfg.SnapshotEvery) {
		return // another request snapshotted while we waited
	}
	if err := s.snapshot(); err != nil {
		log.Printf("gridschedd: snapshot failed (journal keeps growing): %v", err)
		// Back off a full interval before retrying.
		s.pst.sinceSnapshot.Store(0)
	}
}

// snapshot checkpoints the full service state and rotates the log, in
// three steps (checkpoint.go has the layout and why the order is safe):
//
//  1. Mostly unlocked: write the workload file of every running job that
//     has none yet. Workloads are immutable after submit, so s.mu is held
//     only long enough to list the jobs.
//  2. Stop-the-world under s.mu: capture the mutable state, replace the
//     manifest, rotate the log. With s.mu held no append can be in flight,
//     so LastLSN names a frozen log position whose every record's effect
//     the manifest contains. The pause is the manifest's encode (the packed
//     ledgers and a few counters — nothing proportional to workload bytes)
//     plus three fsyncs: manifest, directory, truncated log.
//  3. Unlocked again: sweep the workload files of jobs the manifest no
//     longer lists as running (snapMu keeps other checkpoint writers out).
//
// Callers hold snapMu.
func (s *Service) snapshot() error {
	var pending []snapJob
	s.mu.Lock()
	for _, j := range s.jobs {
		if _, ok := s.pst.stored[j.id]; !ok && j.state == api.JobRunning {
			pending = append(pending, snapJob{record: record{Job: j.id, Workload: j.w}, State: j.state})
		}
	}
	s.mu.Unlock()
	written, err := saveWorkloads(s.pst.dir, pending, s.pst.stored)
	if err != nil {
		return err
	}
	if err := s.pst.reached(stepWorkloadsSaved); err != nil {
		return err
	}

	snap, n, err := s.checkpointLocked()
	written += n
	if err != nil {
		return err
	}
	s.counters.Snapshots.Add(1)
	s.counters.SnapshotBytes.Store(written)
	if err := s.pst.reached(stepJournalRotated); err != nil {
		return err
	}

	// A failed removal strands an unreferenced file, which the next sweep
	// takes; it is not worth failing a checkpoint that is already durable.
	s.pst.stored = snap.storedJobs()
	if err := sweepDataDir(s.pst.dir, s.pst.stored); err != nil {
		log.Printf("gridschedd: remove retired workload files: %v", err)
	}
	return nil
}

// checkpointLocked is snapshot's stop-the-world step: capture, manifest,
// rotation, all inside one hold of s.mu. Returns the captured snapshot and
// the bytes written.
func (s *Service) checkpointLocked() (*snapshot, int64, error) {
	pauseStart := time.Now()
	s.mu.Lock()
	// The lock stays held through the manifest replacement AND the
	// rotation: Rotate truncates the whole log, so an append landing
	// between the LastLSN capture and the truncation would be destroyed
	// without being represented in the manifest. With s.mu held no such
	// append can exist. The hold is the stop-the-world pause every
	// in-flight request rides out; record it so the pause is visible in
	// /metrics rather than only as tail latency.
	defer func() {
		s.mu.Unlock()
		s.counters.ObserveSnapshotPause(time.Since(pauseStart).Nanoseconds())
	}()
	snap := &snapshot{
		Seq:            s.seq.Load(),
		PartitionIndex: s.cfg.PartitionIndex,
		PartitionCount: s.cfg.PartitionCount,
		LastLSN:        s.pst.w.LastLSN(),
		Carry:          s.pst.carry,
		VTime:          s.arb.vtime,
	}
	tenantNames := make([]string, 0, len(s.arb.tenants))
	for name := range s.arb.tenants {
		tenantNames = append(tenantNames, name)
	}
	sort.Strings(tenantNames)
	for _, name := range tenantNames {
		t := s.arb.tenants[name]
		if t.quota == 0 && t.dispatches == 0 {
			continue // nothing durable to say about this tenant
		}
		snap.Tenants = append(snap.Tenants, snapTenant{
			Name: name, Quota: t.quota, Dispatches: t.dispatches,
		})
	}
	resident := len(s.jobs)
	jobs := make([]*job, 0, resident)
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq }) // submission order
	snap.Jobs = make([]snapJob, 0, resident)
	draws := make([]uint64, 0, resident) // what the entries' Draws point into: one allocation, not one per job
	for _, j := range jobs {
		sj := snapJob{
			record: record{
				Op:         opSubmit,
				Ts:         j.submitted.UnixMilli(),
				Job:        j.id,
				Name:       j.name,
				Algorithm:  j.algorithm,
				Seed:       j.seed,
				Submission: j.submissionID,
				Tenant:     j.tenant,
				Weight:     j.weight,
				Requires:   j.requires,
				Deadline:   j.deadlineMs,
			},
			State: j.state,
			Tasks: j.tasks,
		}
		if !j.finished.IsZero() {
			sj.Finished = j.finished.UnixMilli()
		}
		if j.state == api.JobCompleted {
			sj.Dispatched, sj.Completed, sj.Failed = j.dispatched, j.completed, j.failed
			sj.Cancelled, sj.Expired, sj.Transfers = j.cancelled, j.expired, j.transfers
			sj.Speculated = j.speculated
		} else {
			// Running jobs re-derive speculated (and the rest of the
			// counters' replayable parts) from the ledger. A job submitted
			// since step 1 has no workload file yet; writeCheckpoint writes
			// it here, under the lock — one workload, rarely.
			sj.Workload = j.w
			sj.Ledger = j.ledger
			sj.Fair = j.fair
			if br, ok := j.sched.(core.BulkReplayer); ok {
				draws = append(draws, br.Draws())
				sj.Draws = &draws[len(draws)-1]
			}
		}
		snap.Jobs = append(snap.Jobs, sj)
	}
	snap.Workers = s.tel.snapshotWorkers()
	written, err := writeCheckpoint(s.pst.dir, snap, s.pst.stored)
	if err != nil {
		return nil, written, err
	}
	for _, j := range jobs {
		if j.sched == nil {
			j.w = nil // a standby's shell held it only until a file did
		}
	}
	if err := s.pst.reached(stepManifestRenamed); err != nil {
		return nil, written, err
	}
	if err := s.pst.w.Rotate(); err != nil {
		return nil, written, err
	}
	s.pst.sinceSnapshot.Store(0)
	return snap, written, nil
}
