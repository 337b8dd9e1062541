package service

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gridsched/internal/metrics"
)

// The package's followers reconnect within a tenth of a second, so a test
// that restarts or swaps a leader waits no longer than that.
func init() { reconnectMax = 100 * time.Millisecond }

// ReplicationCounters exposes the follower's replication metrics.
func (f *Follower) ReplicationCounters() *metrics.ReplicationCounters { return f.repl }

// CrashForTest kills the service the way SIGKILL would: the sweeper stops,
// parked long polls fail, and the journal's file descriptor is closed with
// no final sync and no shutdown snapshot. Everything the journal already
// wrote stays readable (it reached the page cache before any mutation was
// acknowledged), which is exactly the state a kill -9 leaves on disk.
// Crash-recovery tests reopen the data dir with New afterwards.
func (s *Service) CrashForTest() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.sweepStop)
	s.hub.broadcast()
	<-s.sweepDone
	if s.pst != nil {
		s.pst.w.Abandon()
	}
}

// SnapshotForTest forces a snapshot+rotation, so tests can pin down which
// state came from the snapshot and which from the journal tail.
func (s *Service) SnapshotForTest() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshot()
}

// SweepForTest runs one sweep at the service's current clock. The policy
// harness drives a fake clock and calls this instead of waiting out the
// wall-clock sweep cadence, which keeps straggler detection and deadline
// urgency deterministic.
func (s *Service) SweepForTest() {
	s.sweep(s.now())
}

// Checkpoint step boundaries, for SetCheckpointStepHookForTest.
const (
	StepWorkloadsSaved  = stepWorkloadsSaved
	StepManifestRenamed = stepManifestRenamed
	StepJournalRotated  = stepJournalRotated
)

// SetCheckpointStepHookForTest installs fn to be told every checkpoint
// step boundary as it is reached; an error from fn abandons the checkpoint
// at that boundary, which is how the crash-ordering tests die between two
// steps (faultinject.Steps).
func (s *Service) SetCheckpointStepHookForTest(fn func(step string) error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.pst.atStep = fn
}

// AttachedForTest reports whether the worker has a lease session attached
// (a pull in progress, an open stream). A test that closes a stream polls
// it to learn that the server has noticed.
func (s *Service) AttachedForTest(workerID string) bool {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	w := s.reg.workers[workerID]
	return w != nil && w.attached != ""
}

// QuotaRecordForTest is the journal payload of a tenant quota override, for
// a test that plays leader by writing the stream itself.
func QuotaRecordForTest(tenant string, quota int, ts int64) []byte {
	return (&record{Op: opQuota, Tenant: tenant, Quota: quota, Ts: ts}).appendTo(nil)
}

// RouteForTest is one row of the route table: its pattern, and whether a
// standby serves it (a read route) or redirects it to the leader.
type RouteForTest struct {
	Pattern string
	Read    bool
}

// RoutesForTest lists the route table both roles are mounted from.
func RoutesForTest() []RouteForTest {
	var out []RouteForTest
	for _, rt := range routes {
		out = append(out, RouteForTest{Pattern: rt.pattern, Read: rt.read})
	}
	return out
}

// CrashForTest kills the standby the way SIGKILL would: the stream stops
// and the journal's file descriptor is closed with no final sync.
func (f *Follower) CrashForTest() {
	f.closeOnce.Do(func() {
		f.cancel()
		<-f.done
		f.st.Load().pst.w.Abandon()
	})
}

// SetCheckpointStepHookForTest is Service.SetCheckpointStepHookForTest for
// the standby's current replica; the hook runs on the stream's goroutine.
func (f *Follower) SetCheckpointStepHookForTest(fn func(step string) error) {
	f.st.Load().SetCheckpointStepHookForTest(fn)
}

// ManifestJobForTest is what a test reads, and may edit, of one job entry of
// a data dir's manifest.
type ManifestJobForTest struct {
	State  string
	Inline bool    // carries its workload inline
	Ledger []byte  // packed: ledgerRecSize bytes an event
	Draws  *uint64 // nil: restore re-asks the ledger
}

// ManifestForTest decodes dir's manifest with the reader recovery uses,
// returning the journal position it covers and its jobs by id.
func ManifestForTest(dir string) (lastLSN uint64, jobs map[string]*ManifestJobForTest, err error) {
	snap, err := manifestForTest(dir)
	if err != nil {
		return 0, nil, err
	}
	jobs = make(map[string]*ManifestJobForTest, len(snap.Jobs))
	for i := range snap.Jobs {
		j := manifestJobForTest(&snap.Jobs[i])
		jobs[snap.Jobs[i].Job] = &j
	}
	return snap.LastLSN, jobs, nil
}

// EditManifestForTest calls edit on every job entry of dir's manifest, in
// manifest order, and writes back the ledgers and draw counts it leaves
// with the encoder checkpoints use: what a corruption, or a scheduler that
// records no draws, would have left there.
func EditManifestForTest(dir string, edit func(id string, j *ManifestJobForTest)) error {
	snap, err := manifestForTest(dir)
	if err != nil {
		return err
	}
	for i := range snap.Jobs {
		sj := &snap.Jobs[i]
		j := manifestJobForTest(sj)
		edit(sj.Job, &j)
		sj.Ledger, sj.Draws = j.Ledger, j.Draws
	}
	data, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644)
}

func manifestJobForTest(sj *snapJob) ManifestJobForTest {
	return ManifestJobForTest{State: sj.State, Inline: sj.Workload != nil, Ledger: sj.Ledger, Draws: sj.Draws}
}

func manifestForTest(dir string) (*snapshot, error) {
	snap, err := readManifest(dir)
	if err == nil && snap == nil {
		err = fmt.Errorf("%s holds no manifest", dir)
	}
	return snap, err
}
