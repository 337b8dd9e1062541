package metrics_test

import (
	"bytes"
	"testing"

	. "gridsched/internal/metrics"
	"gridsched/internal/testkit"
)

// scrape is what a scraper sees of declared: written, then read back
// strictly.
func scrape(t *testing.T, declared []Metric) []Metric {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, declared); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	ms, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read refuses what Write wrote: %v\n%s", err, body)
	}
	var again bytes.Buffer
	if err := Write(&again, ms); err != nil || again.String() != body {
		t.Fatalf("read back and written again (err %v):\n%s\nfirst written:\n%s", err, again.String(), body)
	}
	return ms
}

// wantSample checks one series of a scrape: its family's type and its value.
func wantSample(t *testing.T, ms []Metric, kind Kind, name, suffix string, value float64, labels ...Label) {
	t.Helper()
	for _, m := range ms {
		if m.Name == name && m.Kind != kind {
			t.Errorf("%s is a %s, want %s", name, m.Kind, kind)
		}
	}
	v, ok := testkit.Lookup(ms, name, suffix, labels...)
	if !ok {
		t.Errorf("no series %s%s%v", name, suffix, labels)
	} else if v != value {
		t.Errorf("%s%s%v = %v, want %v", name, suffix, labels, v, value)
	}
}

func TestServiceCountersMetrics(t *testing.T) {
	c := NewServiceCounters()
	c.JobsSubmitted.Add(2)
	c.Pulls.Add(17)
	c.ActiveLeases.Add(3)
	c.ActiveLeases.Add(-1)
	c.ObserveDispatch(1_500_000)
	c.ObserveDispatch(500_000)

	ms := scrape(t, c.Metrics())
	wantSample(t, ms, KindCounter, "gridsched_jobs_submitted_total", "", 2)
	wantSample(t, ms, KindCounter, "gridsched_pulls_total", "", 17)
	wantSample(t, ms, KindGauge, "gridsched_active_leases", "", 2)
	wantSample(t, ms, KindCounter, "gridsched_completions_total", "", 0)
	wantSample(t, ms, KindSummary, "gridsched_dispatch_latency_seconds", "_sum", 0.002)
	wantSample(t, ms, KindSummary, "gridsched_dispatch_latency_seconds", "_count", 2)
	wantSample(t, ms, KindGauge, "gridsched_dispatch_latency_max_seconds", "", 0.0015)
}

func TestSnapshotPauseGauges(t *testing.T) {
	c := NewServiceCounters()
	c.ObserveSnapshotPause(2_500_000) // 2.5ms
	c.ObserveSnapshotPause(1_000_000) // 1ms: last moves, max stays, total adds

	ms := scrape(t, c.Metrics())
	wantSample(t, ms, KindGauge, "gridsched_snapshot_pause_ms", "", 1, Label{"stat", "last"})
	wantSample(t, ms, KindGauge, "gridsched_snapshot_pause_ms", "", 2.5, Label{"stat", "max"})
	wantSample(t, ms, KindCounter, "gridsched_snapshot_pause_seconds_total", "", 0.0035)
}

func TestReplayPhaseGauges(t *testing.T) {
	c := NewServiceCounters()
	c.ReplayPhaseNanos[ReplayCheckpoint].Store(2_000_000)
	c.ReplayPhaseNanos[ReplayRestore].Store(135_500_000)
	c.ReplayPhaseNanos[ReplayTail].Store(61_000_000)
	c.ReplayPhaseNanos[ReplayCompact].Store(4_250_000)

	ms := scrape(t, c.Metrics())
	for phase, want := range map[string]float64{
		"checkpoint": 0.002, "restore": 0.1355, "tail": 0.061, "expire": 0, "compact": 0.00425,
	} {
		wantSample(t, ms, KindGauge, "gridsched_replay_phase_seconds", "", want, Label{"phase", phase})
	}
	if got, want := c.ReplayPhaseSummary(), "checkpoint 2.0ms, restore 135.5ms, tail 61.0ms, expire 0.0ms, compact 4.2ms"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
}

// TestReplicationMetrics: the one-hot role gauge, and the position a node
// hands in served as it was handed in.
func TestReplicationMetrics(t *testing.T) {
	c := &ReplicationCounters{}
	c.FramesApplied.Add(7)
	ms := scrape(t, ReplicationMetrics("follower", c, 40, 42, 2))
	wantSample(t, ms, KindGauge, "gridsched_replication_role", "", 1, Label{"role", "follower"})
	wantSample(t, ms, KindGauge, "gridsched_replication_role", "", 0, Label{"role", "leader"})
	wantSample(t, ms, KindGauge, "gridsched_replication_role", "", 0, Label{"role", "recovering"})
	wantSample(t, ms, KindCounter, "gridsched_replication_frames_applied_total", "", 7)
	wantSample(t, ms, KindGauge, "gridsched_replication_local_lsn", "", 40)
	wantSample(t, ms, KindGauge, "gridsched_replication_leader_lsn", "", 42)
	wantSample(t, ms, KindGauge, "gridsched_replication_lag_lsn", "", 2)
}
