package metrics

import (
	"strings"
	"testing"
)

func TestServiceCountersWriteText(t *testing.T) {
	c := NewServiceCounters()
	c.JobsSubmitted.Add(2)
	c.Pulls.Add(17)
	c.ActiveLeases.Add(3)
	c.ActiveLeases.Add(-1)

	var sb strings.Builder
	if err := c.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gridsched_jobs_submitted_total counter",
		"gridsched_jobs_submitted_total 2",
		"gridsched_pulls_total 17",
		"# TYPE gridsched_active_leases gauge",
		"gridsched_active_leases 2",
		"gridsched_completions_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotPauseGauges(t *testing.T) {
	c := NewServiceCounters()
	c.ObserveSnapshotPause(2_500_000) // 2.5ms
	c.ObserveSnapshotPause(1_000_000) // 1ms: last moves, max stays, total adds

	var sb strings.Builder
	if err := c.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gridsched_snapshot_pause_ms gauge",
		`gridsched_snapshot_pause_ms{stat="last"} 1`,
		`gridsched_snapshot_pause_ms{stat="max"} 2.5`,
		"# TYPE gridsched_snapshot_pause_seconds_total counter",
		"gridsched_snapshot_pause_seconds_total 0.0035\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestReplayPhaseGauges(t *testing.T) {
	c := NewServiceCounters()
	c.ReplayPhaseNanos[ReplayCheckpoint].Store(2_000_000)
	c.ReplayPhaseNanos[ReplayRestore].Store(135_500_000)
	c.ReplayPhaseNanos[ReplayTail].Store(61_000_000)
	c.ReplayPhaseNanos[ReplayCompact].Store(4_250_000)

	var sb strings.Builder
	if err := c.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gridsched_replay_phase_seconds gauge\n",
		`gridsched_replay_phase_seconds{phase="checkpoint"} 0.002` + "\n",
		`gridsched_replay_phase_seconds{phase="restore"} 0.1355` + "\n",
		`gridsched_replay_phase_seconds{phase="tail"} 0.061` + "\n",
		`gridsched_replay_phase_seconds{phase="expire"} 0` + "\n",
		`gridsched_replay_phase_seconds{phase="compact"} 0.00425` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if got, want := c.ReplayPhaseSummary(), "checkpoint 2.0ms, restore 135.5ms, tail 61.0ms, expire 0.0ms, compact 4.2ms"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
}
