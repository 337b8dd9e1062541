package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"gridsched/internal/middleware"
	"gridsched/internal/partition"
	"gridsched/internal/service/api"
)

// maxBodyBytes bounds request bodies; workloads dominate (a 100k-task
// trace is ~10MB of JSON).
const maxBodyBytes = 64 << 20

// Handler returns the service's HTTP/JSON surface (see internal/service/api
// for the route table and wire types).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handleTenantQuota)
	mux.HandleFunc("POST /v1/workers", s.handleRegister)
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	mux.HandleFunc("DELETE /v1/workers/{id}", s.handleDeregister)
	mux.HandleFunc("POST /v1/workers/{id}/pull", s.handlePull)
	mux.HandleFunc("GET /v1/workers/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/workers/{id}/reports", s.handleReportBatch)
	mux.HandleFunc("POST /v1/assignments/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/assignments/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/replication/stream", s.handleReplicationStream)
	mux.HandleFunc("GET /v1/partitions", s.handlePartitions)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	var se *Error
	if errors.As(err, &se) {
		writeJSON(w, se.Code, api.ErrorResponse{Error: se.Msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error()})
}

// readBody decodes the request body with whichever codec its Content-Type
// names: the compact binary codec under api.ContentTypeBinary, JSON for
// everything else (including an absent header). A body it cannot use is
// answered here — 413 when it ran past maxBodyBytes, 400 otherwise — and
// reported as false.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var err error
	if api.IsBinary(r.Header.Get("Content-Type")) {
		var data []byte
		if data, err = io.ReadAll(body); err == nil {
			err = api.Binary.Unmarshal(data, v)
		}
	} else {
		err = json.NewDecoder(body).Decode(v)
	}
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeError(w, errf(http.StatusBadRequest, "bad request body: %v", err))
	}
	return false
}

// writeReply answers with the binary codec when the request's Accept
// header asked for it and the payload has a binary encoding; JSON
// otherwise. Errors never go through here — writeError keeps them JSON so
// a failure is always human-readable.
func writeReply(w http.ResponseWriter, r *http.Request, code int, v any) {
	if api.AcceptsBinary(r.Header.Get("Accept")) && api.Binary.Supports(v) {
		if b, err := api.Binary.Marshal(v); err == nil {
			w.Header().Set("Content-Type", api.ContentTypeBinary)
			w.WriteHeader(code)
			_, _ = w.Write(b)
			return
		}
	}
	writeJSON(w, code, v)
}

// answer is a handler's last step: the reply, or the error there was instead.
func answer(w http.ResponseWriter, r *http.Request, code int, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeReply(w, r, code, v)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SubmitJobRequest
	if !readBody(w, r, &req) {
		return
	}
	// Two refusals keep a keyed submit exactly-once behind a router that
	// places it by header without reading the body: the header must repeat
	// the body's key, and the key must hash to this partition — a job taken
	// in from a headerless submit that round-robin brought here is one its
	// retry, routed by key, would never find.
	key := req.SubmissionID
	if header := r.Header.Get(api.SubmissionIDHeader); header != "" && header != key {
		writeError(w, errf(http.StatusBadRequest, "%s %q is not the body's submissionId %q", api.SubmissionIDHeader, header, key))
		return
	}
	if owner := partition.SubmitOwner(key, s.cfg.PartitionCount); key != "" && owner != s.cfg.PartitionIndex {
		writeError(w, errf(http.StatusConflict,
			"submissionId %q belongs to partition %d, this is partition %d of %d: submit it there, or through the router with the key in the %s header",
			key, owner, s.cfg.PartitionIndex, s.cfg.PartitionCount, api.SubmissionIDHeader))
		return
	}
	// When the ingress chain authenticated the caller, the submission is
	// bound to the token's tenant: a non-admin token may not submit on
	// another tenant's behalf. Unauthenticated deployments (no chain, or
	// no -auth-tokens) keep the historical request-names-the-tenant
	// behavior.
	if p, ok := middleware.PrincipalFrom(r.Context()); ok && !p.Admin {
		if req.Tenant != "" && req.Tenant != p.Tenant {
			writeError(w, errf(http.StatusForbidden,
				"token for tenant %q cannot submit as tenant %q", p.Tenant, req.Tenant))
			return
		}
		req.Tenant = p.Tenant
	}
	id, err := s.SubmitJob(req)
	answer(w, r, http.StatusCreated, api.SubmitJobResponse{JobID: id}, err)
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Tenants())
}

func (s *Service) handleTenantQuota(w http.ResponseWriter, r *http.Request) {
	var req api.TenantQuotaRequest
	if !readBody(w, r, &req) {
		return
	}
	st, err := s.SetTenantQuota(r.PathValue("tenant"), req.MaxInFlight)
	answer(w, r, http.StatusOK, st, err)
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.JobStatus(r.PathValue("id"))
	answer(w, r, http.StatusOK, st, err)
}

func (s *Service) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Deletion is tenant-scoped: a non-admin token may delete only its own
	// tenant's jobs (job tenants are immutable, so the check cannot race
	// the delete). Reads stay cluster-visible by design — see the
	// visibility model in docs/INGRESS.md.
	if p, ok := middleware.PrincipalFrom(r.Context()); ok && !p.Admin {
		st, err := s.JobStatus(id)
		if err != nil {
			writeError(w, err)
			return
		}
		if st.Tenant != p.Tenant {
			writeError(w, errf(http.StatusForbidden,
				"token for tenant %q cannot delete tenant %q's job %q", p.Tenant, st.Tenant, id))
			return
		}
	}
	answer(w, r, http.StatusOK, struct{}{}, s.DeleteJob(id))
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterRequest
	if !readBody(w, r, &req) {
		return
	}
	site := -1
	if req.Site != nil {
		site = *req.Site
	}
	resp, err := s.RegisterWorker(site, req.Tags)
	answer(w, r, http.StatusCreated, resp, err)
}

func (s *Service) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Workers())
}

func (s *Service) handleDeregister(w http.ResponseWriter, r *http.Request) {
	answer(w, r, http.StatusOK, struct{}{}, s.Deregister(r.PathValue("id")))
}

func (s *Service) handlePull(w http.ResponseWriter, r *http.Request) {
	var req api.PullRequest
	if !readBody(w, r, &req) {
		return
	}
	resp, parked, err := s.pull(r.Context().Done(), r.PathValue("id"), time.Duration(req.WaitMillis)*time.Millisecond)
	// Report the long-poll park to the ingress shedder: an idle worker's
	// empty pull spends its whole poll budget parked here, and counting
	// that as request latency would shed a healthy, unloaded system.
	middleware.ObserveParked(r.Context(), parked)
	answer(w, r, http.StatusOK, resp, err)
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req api.HeartbeatRequest
	if !readBody(w, r, &req) {
		return
	}
	resp, err := s.Heartbeat(r.PathValue("id"), req.WorkerID)
	answer(w, r, http.StatusOK, resp, err)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	var req api.ReportRequest
	if !readBody(w, r, &req) {
		return
	}
	resp, err := s.Report(r.PathValue("id"), req.WorkerID, req.Outcome)
	answer(w, r, http.StatusOK, resp, err)
}

func (s *Service) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	var req api.ReportBatchRequest
	if !readBody(w, r, &req) {
		return
	}
	resp, err := s.ReportBatch(r.PathValue("id"), req.Reports)
	answer(w, r, http.StatusOK, resp, err)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handlePartitions reports this service's partition identity. A bare
// partition only knows itself; the router overlays the full deployment
// view (URLs, per-partition health) on the same route. See
// docs/PARTITIONING.md.
func (s *Service) handlePartitions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.PartitionTopology{
		Count: s.cfg.PartitionCount,
		Self:  s.cfg.PartitionIndex,
	})
}

// handleReadyz answers readiness probes: 200 once recovery completed, 503
// before. A constructed Service is always ready (New only returns after
// recovery), so the 503 arm matters to servers that bind their listener
// before construction finishes — cmd/gridschedd serves its own
// recovering-state /readyz until the service exists, then routes here.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.readiness()
	if rd.Status != "ready" {
		writeJSON(w, http.StatusServiceUnavailable, rd)
		return
	}
	writeJSON(w, http.StatusOK, rd)
}
