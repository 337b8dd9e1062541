package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// ServiceCounters are the gridschedd daemon's (internal/service) operational
// metrics: lock-free atomic counters fed from the request path and rendered
// at /metrics in the Prometheus text exposition format.
//
// Counters only ever grow; the Active*/OpenJobs fields are gauges.
type ServiceCounters struct {
	JobsSubmitted  atomic.Int64
	JobsCompleted  atomic.Int64
	Pulls          atomic.Int64
	Assignments    atomic.Int64
	Completions    atomic.Int64
	Failures       atomic.Int64
	Cancellations  atomic.Int64
	LeasesExpired  atomic.Int64
	WorkersExpired atomic.Int64
	Heartbeats     atomic.Int64
	StaleReports   atomic.Int64

	// Straggler speculation. SpeculativeDispatches is durable (restored
	// from carry + resident jobs at recovery); wins/losses are
	// process-local observations about which replica reported first.
	SpeculativeDispatches atomic.Int64
	SpeculationWins       atomic.Int64
	SpeculationLosses     atomic.Int64

	ActiveWorkers atomic.Int64
	ActiveLeases  atomic.Int64
	OpenJobs      atomic.Int64
	// Shards is the configured lock-stripe count — a static gauge that
	// lets dashboards correlate dispatch latency with the concurrency
	// layout of the process that produced it.
	Shards atomic.Int64

	// Dispatch latency summary: time spent choosing + staging a task on a
	// successful pull, accumulated as a Prometheus-style summary (count +
	// sum) plus a running maximum.
	DispatchNanos    atomic.Int64
	DispatchCount    atomic.Int64
	DispatchMaxNanos atomic.Int64

	// Persistence metrics (zero when the service runs without -data-dir):
	// journal activity counters plus recovery and snapshot gauges.
	JournalRecords   atomic.Int64 // records appended to the write-ahead log
	JournalBytes     atomic.Int64 // frame bytes written to the log
	JournalFsyncs    atomic.Int64 // fsync(2) calls issued by the log writer
	Snapshots        atomic.Int64 // snapshots written
	SnapshotBytes    atomic.Int64 // bytes the most recent checkpoint wrote (manifest + new workload files)
	ReplayRecords    atomic.Int64 // snapshot ledger + log records replayed at startup
	ReplayNanos      atomic.Int64 // time the startup replay took
	RecoveredExpired atomic.Int64 // in-flight leases expired by recovery
	// ReplayPhaseNanos splits ReplayNanos by recovery phase (they sum to
	// it), so a slow restart names where it spent its time.
	ReplayPhaseNanos [replayPhases]atomic.Int64
	// How the replayed job events reached their schedulers: folded — a
	// checkpointed ledger applied in bulk, nothing decided again — or
	// re-asked one by one (the journal tail always; a ledger whose checkpoint
	// records no draw count or whose scheduler has no bulk mode). A large
	// re-asked count after a clean checkpoint says restore took the slow path.
	ReplayFolded  atomic.Int64
	ReplayReasked atomic.Int64

	// Stop-the-world snapshot pause (the lockAll hold across state
	// collection, marshal, file replacement, and log rotation): last
	// observed, running maximum, and running total, in nanoseconds.
	// Rendered at /metrics as gridsched_snapshot_pause_ms (last, max) and
	// gridsched_snapshot_pause_seconds_total; with
	// gridsched_snapshots_total the total gives the mean pause, and its
	// rate is the share of wall time dispatch spends stalled.
	SnapshotPauseLastNanos  atomic.Int64
	SnapshotPauseMaxNanos   atomic.Int64
	SnapshotPauseTotalNanos atomic.Int64
}

// ReplayPhase indexes ServiceCounters.ReplayPhaseNanos: the steps of a
// startup recovery, in the order they run.
type ReplayPhase int

const (
	ReplayCheckpoint ReplayPhase = iota // manifest read, data dir sweep
	ReplayRestore                       // resident jobs rebuilt, their checkpointed ledgers replayed
	ReplayTail                          // journal records past the checkpoint applied
	ReplayExpire                        // crash-time leases expired, counters rebuilt
	ReplayCompact                       // post-recovery checkpoint
	replayPhases
)

var replayPhaseNames = [replayPhases]string{"checkpoint", "restore", "tail", "expire", "compact"}

// ReplayPhaseSummary renders the recovery phases for a log line:
// "checkpoint 2.1ms, restore 135.9ms, tail 61.0ms, expire 0.3ms, compact
// 4.2ms".
func (c *ServiceCounters) ReplayPhaseSummary() string {
	var b strings.Builder
	for p, name := range replayPhaseNames {
		if p > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1fms", name, float64(c.ReplayPhaseNanos[p].Load())/1e6)
	}
	return b.String()
}

// ObserveDispatch folds one dispatch duration into the latency summary.
func (c *ServiceCounters) ObserveDispatch(nanos int64) {
	c.DispatchNanos.Add(nanos)
	c.DispatchCount.Add(1)
	for {
		cur := c.DispatchMaxNanos.Load()
		if nanos <= cur || c.DispatchMaxNanos.CompareAndSwap(cur, nanos) {
			return
		}
	}
}

// ObserveSnapshotPause records one stop-the-world snapshot pause.
func (c *ServiceCounters) ObserveSnapshotPause(nanos int64) {
	c.SnapshotPauseLastNanos.Store(nanos)
	c.SnapshotPauseTotalNanos.Add(nanos)
	for {
		cur := c.SnapshotPauseMaxNanos.Load()
		if nanos <= cur || c.SnapshotPauseMaxNanos.CompareAndSwap(cur, nanos) {
			return
		}
	}
}

// NewServiceCounters returns zeroed counters.
func NewServiceCounters() *ServiceCounters { return &ServiceCounters{} }

// WriteText renders every metric as Prometheus text exposition lines.
func (c *ServiceCounters) WriteText(w io.Writer) error {
	for _, m := range []struct {
		name, kind string
		v          int64
	}{
		{"gridsched_jobs_submitted_total", "counter", c.JobsSubmitted.Load()},
		{"gridsched_jobs_completed_total", "counter", c.JobsCompleted.Load()},
		{"gridsched_pulls_total", "counter", c.Pulls.Load()},
		{"gridsched_assignments_total", "counter", c.Assignments.Load()},
		{"gridsched_completions_total", "counter", c.Completions.Load()},
		{"gridsched_failures_total", "counter", c.Failures.Load()},
		{"gridsched_cancellations_total", "counter", c.Cancellations.Load()},
		{"gridsched_leases_expired_total", "counter", c.LeasesExpired.Load()},
		{"gridsched_workers_expired_total", "counter", c.WorkersExpired.Load()},
		{"gridsched_heartbeats_total", "counter", c.Heartbeats.Load()},
		{"gridsched_stale_reports_total", "counter", c.StaleReports.Load()},
		{"gridsched_speculative_dispatches_total", "counter", c.SpeculativeDispatches.Load()},
		{"gridsched_speculation_wins_total", "counter", c.SpeculationWins.Load()},
		{"gridsched_speculation_losses_total", "counter", c.SpeculationLosses.Load()},
		{"gridsched_active_workers", "gauge", c.ActiveWorkers.Load()},
		{"gridsched_active_leases", "gauge", c.ActiveLeases.Load()},
		{"gridsched_open_jobs", "gauge", c.OpenJobs.Load()},
		{"gridsched_shards", "gauge", c.Shards.Load()},
		{"gridsched_journal_records_total", "counter", c.JournalRecords.Load()},
		{"gridsched_journal_bytes_total", "counter", c.JournalBytes.Load()},
		{"gridsched_journal_fsyncs_total", "counter", c.JournalFsyncs.Load()},
		{"gridsched_snapshots_total", "counter", c.Snapshots.Load()},
		{"gridsched_snapshot_bytes", "gauge", c.SnapshotBytes.Load()},
		{"gridsched_replay_records", "gauge", c.ReplayRecords.Load()},
		{"gridsched_recovered_expired_leases", "gauge", c.RecoveredExpired.Load()},
	} {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.name, m.kind, m.name, m.v); err != nil {
			return err
		}
	}
	// Dispatch latency as a summary (seconds) plus max gauge.
	const nsPerSec = 1e9
	if _, err := fmt.Fprintf(w,
		"# TYPE gridsched_dispatch_latency_seconds summary\n"+
			"gridsched_dispatch_latency_seconds_sum %g\n"+
			"gridsched_dispatch_latency_seconds_count %d\n"+
			"# TYPE gridsched_dispatch_latency_max_seconds gauge\n"+
			"gridsched_dispatch_latency_max_seconds %g\n",
		float64(c.DispatchNanos.Load())/nsPerSec,
		c.DispatchCount.Load(),
		float64(c.DispatchMaxNanos.Load())/nsPerSec); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"# TYPE gridsched_replay_seconds gauge\ngridsched_replay_seconds %g\n",
		float64(c.ReplayNanos.Load())/nsPerSec); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "# TYPE gridsched_replay_phase_seconds gauge\n"); err != nil {
		return err
	}
	for p, name := range replayPhaseNames {
		if _, err := fmt.Fprintf(w, "gridsched_replay_phase_seconds{phase=%q} %g\n",
			name, float64(c.ReplayPhaseNanos[p].Load())/nsPerSec); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w,
		"# TYPE gridsched_replay_events gauge\n"+
			"gridsched_replay_events{path=\"folded\"} %d\n"+
			"gridsched_replay_events{path=\"reasked\"} %d\n",
		c.ReplayFolded.Load(), c.ReplayReasked.Load()); err != nil {
		return err
	}
	const nsPerMs = 1e6
	_, err := fmt.Fprintf(w,
		"# TYPE gridsched_snapshot_pause_ms gauge\n"+
			"gridsched_snapshot_pause_ms{stat=\"last\"} %g\n"+
			"gridsched_snapshot_pause_ms{stat=\"max\"} %g\n"+
			"# TYPE gridsched_snapshot_pause_seconds_total counter\n"+
			"gridsched_snapshot_pause_seconds_total %g\n",
		float64(c.SnapshotPauseLastNanos.Load())/nsPerMs,
		float64(c.SnapshotPauseMaxNanos.Load())/nsPerMs,
		float64(c.SnapshotPauseTotalNanos.Load())/nsPerSec)
	return err
}
