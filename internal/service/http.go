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

// route is one row of the service's HTTP surface. A read route answers from
// replicated state alone, so a standby serves it through the same handler;
// every other route a standby answers 421 with its leader's address.
type route struct {
	pattern string
	read    bool
	handle  func(*Service, http.ResponseWriter, *http.Request)
}

// routes is the route table of both roles (docs/PROTOCOL.md, "Endpoints",
// is checked against it).
var routes = []route{
	{"POST /v1/jobs", false, (*Service).handleSubmit},
	{"GET /v1/jobs", true, get((*Service).Jobs)},
	{"GET /v1/jobs/{id}", true, (*Service).handleJob},
	{"DELETE /v1/jobs/{id}", false, (*Service).handleDeleteJob},
	{"GET /v1/tenants", true, get((*Service).Tenants)},
	{"PUT /v1/tenants/{tenant}", false, (*Service).handleTenantQuota},
	{"POST /v1/workers", false, (*Service).handleRegister},
	{"GET /v1/workers", false, get((*Service).Workers)},
	{"DELETE /v1/workers/{id}", false, (*Service).handleDeregister},
	{"POST /v1/workers/{id}/pull", false, (*Service).handlePull},
	{"GET /v1/workers/{id}/stream", false, (*Service).handleStream},
	{"POST /v1/workers/{id}/reports", false, (*Service).handleReportBatch},
	{"POST /v1/assignments/{id}/heartbeat", false, (*Service).handleHeartbeat},
	{"POST /v1/assignments/{id}/report", false, (*Service).handleReport},
	{"GET /v1/replication/stream", false, (*Service).handleReplicationStream},
	{"GET /v1/partitions", true, get((*Service).partitions)},
	{"GET /healthz", true, get((*Service).Health)},
	{"GET /readyz", true, (*Service).handleReadyz},
	{"GET /metrics", true, (*Service).handleMetrics},
}

// get is the handler of a route that answers 200 with one view of the state.
func get[T any](view func(*Service) T) func(*Service, http.ResponseWriter, *http.Request) {
	return func(s *Service, w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, view(s))
	}
}

// Handler returns the service's HTTP/JSON surface (see internal/service/api
// for the wire types).
func (s *Service) Handler() http.Handler {
	return serveRoutes(func() *Service { return s })
}

// serveRoutes mounts the route table over whatever state svc names when a
// request arrives: a Follower's replica changes under a catch-up snapshot.
func serveRoutes(svc func() *Service) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			s := svc()
			if s.standby != nil && !rt.read {
				s.standby.redirectToLeader(w, r)
				return
			}
			rt.handle(s, w, r)
		})
	}
	return mux
}

func writeError(w http.ResponseWriter, err error) {
	var se *Error
	if errors.As(err, &se) {
		api.WriteJSON(w, se.Code, api.ErrorResponse{Error: se.Msg})
		return
	}
	api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: err.Error()})
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
	api.WriteJSON(w, code, v)
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

func (s *Service) handleTenantQuota(w http.ResponseWriter, r *http.Request) {
	var req api.TenantQuotaRequest
	if !readBody(w, r, &req) {
		return
	}
	st, err := s.SetTenantQuota(r.PathValue("tenant"), req.MaxInFlight)
	answer(w, r, http.StatusOK, st, err)
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

// partitions reports this service's partition identity. A bare partition
// only knows itself; the router overlays the full deployment view (URLs,
// per-partition health) on the same route. See docs/PARTITIONING.md.
func (s *Service) partitions() api.PartitionTopology {
	return api.PartitionTopology{Count: s.cfg.PartitionCount, Self: s.cfg.PartitionIndex}
}

// handleReadyz answers readiness probes. Any Service a request can reach is
// ready (New only returns after recovery), so the 503 "recovering" answer
// is cmd/gridschedd's own, served until the service exists. A standby names
// its leader in the header too.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := s.readiness()
	if rd.Leader != "" {
		w.Header().Set(api.LeaderHeader, rd.Leader)
	}
	api.WriteJSON(w, http.StatusOK, rd)
}
