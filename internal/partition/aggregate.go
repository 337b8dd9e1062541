package partition

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"gridsched/internal/metrics"
	"gridsched/internal/service/api"
)

// handleJobs merges every partition's job list, ordered by the minted
// sequence number (globally unique across partitions by construction).
func (rt *Router) handleJobs(w http.ResponseWriter, r *http.Request) {
	parts, denied := fanOut[[]api.JobStatus](rt, r.Context(), r.Header.Get("Authorization"), "/v1/jobs")
	merged := []api.JobStatus{}
	for _, p := range parts {
		if p != nil {
			merged = append(merged, *p...)
		}
	}
	sort.Slice(merged, func(i, k int) bool { return idSeq(merged[i].ID) < idSeq(merged[k].ID) })
	finishAggregate(w, parts, denied, merged)
}

// idSeq is the numeric part of a minted id, for ordering only (routing
// uses Owner, which never overflows; list ordering tolerates the
// approximation for absurd ids).
func idSeq(id string) int64 {
	var n int64
	for i := 1; i < len(id) && id[i] >= '0' && id[i] <= '9'; i++ {
		n = n*10 + int64(id[i]-'0')
	}
	return n
}

// handleWorkers concatenates every partition's worker list. Slot
// coordinates (site, worker) repeat across partitions — each partition
// runs the full configured topology — so ordering is by site, slot, then
// id, which groups the per-partition replicas of a slot together.
func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	parts, denied := fanOut[[]api.WorkerStatus](rt, r.Context(), r.Header.Get("Authorization"), "/v1/workers")
	merged := []api.WorkerStatus{}
	for _, p := range parts {
		if p != nil {
			merged = append(merged, *p...)
		}
	}
	sort.Slice(merged, func(i, k int) bool {
		a, b := merged[i], merged[k]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.WorkerID < b.WorkerID
	})
	finishAggregate(w, parts, denied, merged)
}

// handleTenants merges per-partition tenant rows by name: monotone
// counts sum; ShareTarget is recomputed from the merged weights;
// ShareAchieved is the dispatch-weighted mean of the partitions' sliding
// windows. Quotas (MaxInFlight) are enforced per partition, so the
// aggregated row reports the per-partition cap, not a global one.
func (rt *Router) handleTenants(w http.ResponseWriter, r *http.Request) {
	parts, denied := fanOut[[]api.TenantStatus](rt, r.Context(), r.Header.Get("Authorization"), "/v1/tenants")
	finishAggregate(w, parts, denied, mergeTenants(parts))
}

func mergeTenants(parts []*[]api.TenantStatus) []api.TenantStatus {
	byName := map[string]*api.TenantStatus{}
	achievedW := map[string]float64{} // dispatch-weighted ShareAchieved numerator
	var totalWeight int64
	for _, p := range parts {
		if p == nil {
			continue
		}
		for _, t := range *p {
			m := byName[t.Tenant]
			if m == nil {
				m = &api.TenantStatus{Tenant: t.Tenant}
				byName[t.Tenant] = m
			}
			m.Weight += t.Weight
			m.RunningJobs += t.RunningJobs
			m.InFlight += t.InFlight
			m.Dispatches += t.Dispatches
			m.Throttles += t.Throttles
			if t.MaxInFlight > m.MaxInFlight {
				m.MaxInFlight = t.MaxInFlight
			}
			achievedW[t.Tenant] += t.ShareAchieved * float64(t.Dispatches)
			totalWeight += t.Weight
		}
	}
	merged := make([]api.TenantStatus, 0, len(byName))
	for _, m := range byName {
		if totalWeight > 0 {
			m.ShareTarget = float64(m.Weight) / float64(totalWeight)
		}
		if m.Dispatches > 0 {
			m.ShareAchieved = achievedW[m.Tenant] / float64(m.Dispatches)
		}
		merged = append(merged, *m)
	}
	sort.Slice(merged, func(i, k int) bool { return merged[i].Tenant < merged[k].Tenant })
	return merged
}

// handleTenantQuota fans a quota override out to every partition: quotas
// are enforced at lease grant inside each partition, so a deployment-wide
// override must land everywhere. A client-side rejection (4xx) is the same
// on every partition and is relayed as-is. The call is idempotent; if any
// partition could not be reached the router reports 503 and the caller
// retries until all partitions converge.
func (rt *Router) handleTenantQuota(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxReplyBytes))
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("reading body: %v", err)})
		return
	}
	parts, denied, failed := fanOutAs[api.TenantStatus](rt, r.Context(), http.MethodPut,
		"/v1/tenants/"+r.PathValue("tenant"), r.Header.Get("Authorization"), body, json.Unmarshal,
		func(code int) bool { return code/100 == 4 })
	switch {
	case denied != nil:
		api.WriteJSON(w, denied.code, api.ErrorResponse{Error: denied.msg})
	case failed != nil:
		api.WriteJSON(w, http.StatusServiceUnavailable,
			api.ErrorResponse{Error: fmt.Sprintf("quota applied partially: %v (retry to converge)", failed)})
	default:
		rows := make([]*[]api.TenantStatus, len(parts))
		for i, p := range parts {
			rows[i] = &[]api.TenantStatus{*p}
		}
		api.WriteJSON(w, http.StatusOK, mergeTenants(rows)[0])
	}
}

// topology probes every partition's /readyz and assembles the deployment
// view served at /v1/partitions and /readyz.
func (rt *Router) topology(ctx context.Context) api.PartitionTopology {
	topo := api.PartitionTopology{
		Count:      len(rt.urls),
		Partitions: make([]api.PartitionInfo, len(rt.urls)),
	}
	parts, _ := fanOut[api.Readiness](rt, ctx, "", "/readyz") // unauthenticated probe
	for i := range rt.urls {
		info := api.PartitionInfo{Index: i, URL: rt.urls[i]}
		if parts[i] != nil {
			info.Up = parts[i].Status == "ready"
			info.Status = parts[i].Status
			if parts[i].Role != "" {
				info.Status = parts[i].Status + "/" + parts[i].Role
			}
		} else {
			info.Status = rt.downErr(i)
		}
		topo.Partitions[i] = info
	}
	return topo
}

// handlePartitions serves the deployment topology with live per-partition
// health. Partition-aware clients fetch this once and route id-keyed
// traffic directly.
func (rt *Router) handlePartitions(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, rt.topology(r.Context()))
}

// handleReadyz aggregates readiness: 200 only when every partition is
// ready, 503 with the same per-partition body otherwise. Degraded
// operation (some partitions up) still serves traffic — readyz speaks to
// "is the whole deployment healthy", not "can anything be dispatched".
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	topo := rt.topology(r.Context())
	code := http.StatusOK
	for _, p := range topo.Partitions {
		if !p.Up {
			code = http.StatusServiceUnavailable
			break
		}
	}
	api.WriteJSON(w, code, topo)
}

// handleHealthz sums live-partition job/worker gauges; unreachable
// partitions are excluded and named in the PartitionsDownHeader.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	parts, _ := fanOut[api.Health](rt, r.Context(), "", "/healthz") // unauthenticated probe
	sum := api.Health{Status: "ok"}
	for _, p := range parts {
		if p != nil {
			sum.Jobs += p.Jobs
			sum.Workers += p.Workers
			sum.OpenJobs += p.OpenJobs
		}
	}
	finishAggregate(w, parts, nil, sum)
}

// handleMetrics federates /metrics: every partition's families, read
// strictly (metrics.Read), with a partition="<i>" label put first on every
// sample so series from different partitions never collide, merged so each
// family is written once, behind the router's own per-partition up gauge. A
// partition whose body does not read is down like one that did not answer.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	parts, _, _ := fanOutAs[[]metrics.Metric](rt, r.Context(), http.MethodGet, "/metrics", "", nil, func(body []byte, v any) (err error) {
		*v.(*[]metrics.Metric), err = metrics.Read(bytes.NewReader(body))
		return err
	}, authRefusal)
	all := []metrics.Metric{{Name: "gridsched_partition_up", Kind: metrics.KindGauge}}
	var downIdx []string
	for i, ms := range parts {
		up := metrics.Of("partition", strconv.Itoa(i), 0)
		if ms == nil {
			downIdx = append(downIdx, up.Labels[0].Value)
		} else {
			up.Value = 1
			for _, m := range *ms {
				for k := range m.Samples {
					m.Samples[k].Labels = append(up.Labels[:1:1], m.Samples[k].Labels...)
				}
				all = append(all, m)
			}
		}
		all[0].Samples = append(all[0].Samples, up)
	}
	if len(downIdx) > 0 {
		w.Header().Set(api.PartitionsDownHeader, strings.Join(downIdx, ","))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if len(downIdx) == len(parts) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = metrics.Write(w, all)
}
