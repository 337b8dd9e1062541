package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// ServiceCounters are the gridschedd daemon's (internal/service) operational
// metrics: lock-free atomic counters fed from the request path, declared
// for /metrics by Metrics.
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

	// Dispatch latency summary: time spent choosing + staging a task on a
	// successful pull, accumulated as a Prometheus-style summary (count +
	// sum) plus a running maximum.
	DispatchNanos    atomic.Int64
	DispatchCount    atomic.Int64
	DispatchMaxNanos atomic.Int64

	// Persistence metrics (zero when the service runs without -data-dir):
	// recovery and snapshot gauges. The journal's own activity counters are
	// journal.Metrics, which internal/service declares beside these.
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

	// Stop-the-world snapshot pause (the service-lock hold across state
	// collection, marshal, file replacement, and log rotation): last
	// observed, running maximum, and running total, in nanoseconds. With
	// Snapshots the total gives the mean pause, and its rate is the share
	// of wall time dispatch spends stalled.
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
	storeMax(&c.DispatchMaxNanos, nanos)
}

// ObserveSnapshotPause records one stop-the-world snapshot pause.
func (c *ServiceCounters) ObserveSnapshotPause(nanos int64) {
	c.SnapshotPauseLastNanos.Store(nanos)
	c.SnapshotPauseTotalNanos.Add(nanos)
	storeMax(&c.SnapshotPauseMaxNanos, nanos)
}

// storeMax raises max to v unless it is there already.
func storeMax(max *atomic.Int64, v int64) {
	for cur := max.Load(); v > cur && !max.CompareAndSwap(cur, v); cur = max.Load() {
	}
}

// NewServiceCounters returns zeroed counters.
func NewServiceCounters() *ServiceCounters { return &ServiceCounters{} }

// Metrics declares every field for /metrics. Durations are kept in
// nanoseconds and served in seconds, the snapshot pause gauge in
// milliseconds.
func (c *ServiceCounters) Metrics() []Metric {
	const sec, ms = 1e9, 1e6
	per := func(v *atomic.Int64, unit float64) float64 { return float64(v.Load()) / unit }
	phases := Metric{Name: "gridsched_replay_phase_seconds", Kind: KindGauge}
	for p, name := range replayPhaseNames {
		phases.Samples = append(phases.Samples, Of("phase", name, per(&c.ReplayPhaseNanos[p], sec)))
	}
	return []Metric{
		Counter("gridsched_jobs_submitted_total", &c.JobsSubmitted),
		Counter("gridsched_jobs_completed_total", &c.JobsCompleted),
		Counter("gridsched_pulls_total", &c.Pulls),
		Counter("gridsched_assignments_total", &c.Assignments),
		Counter("gridsched_completions_total", &c.Completions),
		Counter("gridsched_failures_total", &c.Failures),
		Counter("gridsched_cancellations_total", &c.Cancellations),
		Counter("gridsched_leases_expired_total", &c.LeasesExpired),
		Counter("gridsched_workers_expired_total", &c.WorkersExpired),
		Counter("gridsched_heartbeats_total", &c.Heartbeats),
		Counter("gridsched_stale_reports_total", &c.StaleReports),
		Counter("gridsched_speculative_dispatches_total", &c.SpeculativeDispatches),
		Counter("gridsched_speculation_wins_total", &c.SpeculationWins),
		Counter("gridsched_speculation_losses_total", &c.SpeculationLosses),
		Gauge("gridsched_active_workers", &c.ActiveWorkers),
		Gauge("gridsched_active_leases", &c.ActiveLeases),
		Gauge("gridsched_open_jobs", &c.OpenJobs),
		Counter("gridsched_snapshots_total", &c.Snapshots),
		Gauge("gridsched_snapshot_bytes", &c.SnapshotBytes),
		Gauge("gridsched_replay_records", &c.ReplayRecords),
		Gauge("gridsched_recovered_expired_leases", &c.RecoveredExpired),
		{Name: "gridsched_dispatch_latency_seconds", Kind: KindSummary, Samples: []Sample{
			{Suffix: "_sum", Value: per(&c.DispatchNanos, sec)},
			{Suffix: "_count", Value: float64(c.DispatchCount.Load())},
		}},
		Fixed("gridsched_dispatch_latency_max_seconds", KindGauge, per(&c.DispatchMaxNanos, sec)),
		Fixed("gridsched_replay_seconds", KindGauge, per(&c.ReplayNanos, sec)),
		phases,
		{Name: "gridsched_replay_events", Kind: KindGauge, Samples: []Sample{
			Of("path", "folded", float64(c.ReplayFolded.Load())),
			Of("path", "reasked", float64(c.ReplayReasked.Load())),
		}},
		{Name: "gridsched_snapshot_pause_ms", Kind: KindGauge, Samples: []Sample{
			Of("stat", "last", per(&c.SnapshotPauseLastNanos, ms)),
			Of("stat", "max", per(&c.SnapshotPauseMaxNanos, ms)),
		}},
		Fixed("gridsched_snapshot_pause_seconds_total", KindCounter, per(&c.SnapshotPauseTotalNanos, sec)),
	}
}
