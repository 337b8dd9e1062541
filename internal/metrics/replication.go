package metrics

import "sync/atomic"

// ReplicationCounters are the WAL-replication metrics of one node, fed by
// the leader's stream handler (internal/service) or the follower loop and
// served at /metrics next to the ServiceCounters. The node's position in
// the log is not kept here: ReplicationMetrics is handed it.
type ReplicationCounters struct {
	// Leader side.
	StreamsActive  atomic.Int64 // open follower stream connections (gauge)
	FramesStreamed atomic.Int64 // frames sent to followers

	// Follower side.
	FramesApplied    atomic.Int64 // frames appended to the local journal
	SnapshotsApplied atomic.Int64 // snapshot catch-ups installed
	Reconnects       atomic.Int64 // stream reconnect attempts
	Halted           atomic.Int64 // 1 after a terminal divergence/journal halt (gauge)
}

// ReplicationMetrics declares a node's replication role — the conventional
// one-hot gauge, so dashboards can group nodes by role with a label
// selector; role is one of the api.Role* values — its counters, and its
// position as of this scrape: the last LSN it holds, the last its leader
// announced, and how far behind that leaves it (0 and 0 on a leader).
func ReplicationMetrics(role string, c *ReplicationCounters, local, leader, lag uint64) []Metric {
	roles := Metric{Name: "gridsched_replication_role", Kind: KindGauge}
	for _, r := range []string{"leader", "follower", "recovering"} {
		is := 0.0
		if r == role {
			is = 1
		}
		roles.Samples = append(roles.Samples, Of("role", r, is))
	}
	return []Metric{
		roles,
		Gauge("gridsched_replication_streams_active", &c.StreamsActive),
		Counter("gridsched_replication_frames_streamed_total", &c.FramesStreamed),
		Counter("gridsched_replication_frames_applied_total", &c.FramesApplied),
		Counter("gridsched_replication_snapshots_applied_total", &c.SnapshotsApplied),
		Counter("gridsched_replication_reconnects_total", &c.Reconnects),
		Gauge("gridsched_replication_halted", &c.Halted),
		Fixed("gridsched_replication_local_lsn", KindGauge, float64(local)),
		Fixed("gridsched_replication_leader_lsn", KindGauge, float64(leader)),
		Fixed("gridsched_replication_lag_lsn", KindGauge, float64(lag)),
	}
}
