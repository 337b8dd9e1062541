package service

import (
	"net/http"
	"strconv"

	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/service/api"
)

// serveMetrics answers GET /metrics with ms. A failed write is the
// scraper's connection going away; there is nobody to tell.
func serveMetrics(w http.ResponseWriter, ms []metrics.Metric) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = metrics.Write(w, ms)
}

// journalMetrics declares a log writer's activity counters.
func journalMetrics(m *journal.Metrics) []metrics.Metric {
	return []metrics.Metric{
		metrics.Counter("gridsched_journal_records_total", &m.Records),
		metrics.Counter("gridsched_journal_bytes_total", &m.Bytes),
		metrics.Counter("gridsched_journal_fsyncs_total", &m.Fsyncs),
	}
}

// handleMetrics serves a standby's families — replication, and its journal
// writer's — or a leader's: the service counters, the journal's, the
// partition identity when there is more than one partition, replication,
// and one series per observed worker slot, resident job and tenant.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rd := s.readiness()
	repl := metrics.ReplicationMetrics(rd.Role, s.repl, rd.LastLSN, rd.LeaderLSN, rd.LagLSN)
	if s.standby != nil {
		serveMetrics(w, append(repl, journalMetrics(s.jmet)...))
		return
	}
	ms := append(s.counters.Metrics(), journalMetrics(s.jmet)...)
	gauge, counter := metrics.KindGauge, metrics.KindCounter
	if s.cfg.PartitionCount > 1 {
		ms = append(ms,
			metrics.Fixed("gridsched_partition_index", gauge, float64(s.cfg.PartitionIndex)),
			metrics.Fixed("gridsched_partition_count", gauge, float64(s.cfg.PartitionCount)))
	}
	ms = append(ms, repl...)
	ms = append(ms, metrics.Table(s.tel.observed(),
		func(ws *workerSlot) []metrics.Label {
			return []metrics.Label{{Name: "site", Value: strconv.Itoa(ws.site)}, {Name: "worker", Value: strconv.Itoa(ws.worker)}}
		},
		metrics.Col("gridsched_worker_mean_task_seconds", gauge, func(ws *workerSlot) float64 { return ws.meanSec }),
		metrics.Col("gridsched_worker_failure_rate", gauge, func(ws *workerSlot) float64 { return ws.failRate }),
		metrics.Col("gridsched_worker_samples", gauge, func(ws *workerSlot) float64 { return float64(ws.samples) }),
	)...)
	type job = api.JobStatus
	ms = append(ms, metrics.Table(s.Jobs(),
		func(j *job) []metrics.Label {
			return []metrics.Label{{Name: "job", Value: j.ID}, {Name: "algorithm", Value: j.Algorithm}}
		},
		metrics.Col("gridsched_job_remaining", gauge, func(j *job) float64 { return float64(j.Remaining) }),
		metrics.Col("gridsched_job_completed", gauge, func(j *job) float64 { return float64(j.Completed) }),
	)...)
	type tenant = api.TenantStatus
	ms = append(ms, metrics.Table(s.Tenants(),
		func(t *tenant) []metrics.Label { return []metrics.Label{{Name: "tenant", Value: t.Tenant}} }, // "": the anonymous default tenant
		metrics.Col("gridsched_tenant_weight", gauge, func(t *tenant) float64 { return float64(t.Weight) }),
		metrics.Col("gridsched_tenant_inflight", gauge, func(t *tenant) float64 { return float64(t.InFlight) }),
		metrics.Col("gridsched_tenant_quota", gauge, func(t *tenant) float64 { return float64(t.MaxInFlight) }),
		metrics.Col("gridsched_tenant_share_target", gauge, func(t *tenant) float64 { return t.ShareTarget }),
		metrics.Col("gridsched_tenant_share_achieved", gauge, func(t *tenant) float64 { return t.ShareAchieved }),
		metrics.Col("gridsched_tenant_dispatches_total", counter, func(t *tenant) float64 { return float64(t.Dispatches) }),
		metrics.Col("gridsched_tenant_quota_throttles_total", counter, func(t *tenant) float64 { return float64(t.Throttles) }),
	)...)
	serveMetrics(w, ms)
}
