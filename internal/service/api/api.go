// Package api defines the wire types of the gridschedd HTTP/JSON protocol
// (internal/service). Both the server and the Go client
// (internal/service/client) speak exactly these structures, so the protocol
// is documented in one place:
//
//	POST   /v1/jobs                     SubmitJobRequest  -> SubmitJobResponse
//	GET    /v1/jobs                                       -> []JobStatus
//	GET    /v1/jobs/{id}                                  -> JobStatus
//	DELETE /v1/jobs/{id}                                  -> {} (completed jobs only)
//	GET    /v1/tenants                                    -> []TenantStatus
//	PUT    /v1/tenants/{tenant}         TenantQuotaRequest -> TenantStatus
//	POST   /v1/workers                  RegisterRequest   -> RegisterResponse
//	GET    /v1/workers                                    -> []WorkerStatus
//	DELETE /v1/workers/{id}                               -> {}
//	POST   /v1/workers/{id}/pull        PullRequest       -> PullResponse (long poll)
//	GET    /v1/workers/{id}/stream?batch=k                -> chunked LeaseBatch frame stream
//	POST   /v1/workers/{id}/reports     ReportBatchRequest -> ReportBatchResponse
//	POST   /v1/assignments/{id}/heartbeat HeartbeatRequest -> HeartbeatResponse
//	POST   /v1/assignments/{id}/report  ReportRequest     -> ReportResponse
//	GET    /v1/replication/stream?from=N                  -> chunked frame stream (internal/replicate)
//	POST   /v1/replication/promote                        -> PromoteResponse (followers only)
//	GET    /v1/partitions                                 -> PartitionTopology (see docs/PARTITIONING.md)
//	GET    /healthz                                       -> Health
//	GET    /readyz                                        -> Readiness (role + replication lag)
//	GET    /metrics                                       -> text (see internal/metrics)
//
// Request and response bodies default to JSON; the hot-path payloads also
// speak the compact binary codec in codec.go, negotiated per request via
// Content-Type/Accept (ContentTypeBinary). The lease stream frames
// LeaseBatch messages with AppendFrame/ReadFrame.
//
// Errors are returned as an ErrorResponse body with a non-2xx status code.
// A follower answers mutating requests with 421 Misdirected Request, an
// ErrorResponse body, and the leader's base URL in the LeaderHeader — the
// redirect hint the Go client's endpoint failover follows.
// The full schema of every endpoint is documented in docs/PROTOCOL.md.
package api

import (
	"gridsched/internal/workload"
)

// Job states.
const (
	JobRunning   = "running"
	JobCompleted = "completed"
)

// Pull statuses.
const (
	// StatusAssigned: PullResponse.Assignment holds a task to execute.
	StatusAssigned = "assigned"
	// StatusEmpty: the long poll timed out with nothing dispatchable for
	// this worker; pull again.
	StatusEmpty = "empty"
)

// Heartbeat states.
const (
	// HeartbeatActive: keep executing; the lease deadline was renewed.
	HeartbeatActive = "active"
	// HeartbeatCancelled: another replica of the task completed; abandon
	// the execution and report (the report is counted as cancelled).
	HeartbeatCancelled = "cancelled"
	// HeartbeatGone: the lease expired (or the assignment never existed);
	// the task has been requeued, so abandon the execution. A late report
	// will be rejected as stale.
	HeartbeatGone = "gone"
)

// Report outcomes.
const (
	OutcomeSuccess = "success"
	OutcomeFailure = "failure"
)

// SubmitJobRequest submits a whole Bag-of-Tasks workload as one job. The
// algorithm is any name accepted by the server's scheduler factory (for
// gridschedd: the names of gridsched.AlgorithmNames, e.g. "combined.2").
type SubmitJobRequest struct {
	Name      string             `json:"name"`
	Algorithm string             `json:"algorithm"`
	Seed      int64              `json:"seed,omitempty"`
	Workload  *workload.Workload `json:"workload"`
	// SubmissionID is an optional client-chosen idempotency key: a
	// resubmission carrying the same key returns the original job's id
	// instead of creating a duplicate. This is what makes retrying a
	// submission safe when the acknowledgement was lost to a connection
	// failure or a server restart (the Go client generates one per
	// SubmitJob call). On a journaled server the key survives restarts
	// until its job is deleted.
	SubmissionID string `json:"submissionId,omitempty"`
	// Tenant groups jobs for fair-share arbitration and concurrency
	// quotas: up to 128 characters of [A-Za-z0-9._-] (it must survive as
	// a URL path segment and a metrics label). Empty means the anonymous
	// default tenant; such jobs still get a fair share and can never be
	// starved by weighted tenants.
	Tenant string `json:"tenant,omitempty"`
	// Weight is the job's fair-share weight: over a contended worker pool
	// the dispatch rates of runnable jobs converge to the ratio of their
	// weights. Zero (or absent) means weight 1; the server rejects
	// negative or absurdly large values.
	Weight int `json:"weight,omitempty"`
	// Requires restricts dispatch to workers that registered with every
	// listed capability tag (same charset as tags; see RegisterRequest).
	// Enforced at lease grant, before the scheduler is consulted, so it
	// never perturbs scheduler state or RNG draws.
	Requires []string `json:"requires,omitempty"`
	// DeadlineMillis is an optional soft deadline (Unix milliseconds).
	// A job predicted to miss it is boosted ahead of fair-share order at
	// dispatch; the deadline never kills the job (docs/SCHEDULING.md).
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
}

// SubmitJobResponse acknowledges a submission.
type SubmitJobResponse struct {
	JobID string `json:"jobId"`
}

// JobStatus is the observable state of one resident job.
type JobStatus struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Algorithm string `json:"algorithm"`
	State     string `json:"state"` // JobRunning | JobCompleted
	// Tenant and Weight are the job's fair-share parameters as resolved by
	// the server (Weight is never zero: absent weights take the default).
	Tenant    string `json:"tenant,omitempty"`
	Weight    int    `json:"weight"`
	Tasks     int    `json:"tasks"`
	Remaining int    `json:"remaining"`
	// Dispatched counts assignments handed to workers (including
	// re-dispatches after lease expiry and storage-affinity replicas).
	Dispatched int `json:"dispatched"`
	Completed  int `json:"completed"`
	Failed     int `json:"failed"`
	Cancelled  int `json:"cancelled"`
	// Expired counts leases that timed out and requeued their task.
	Expired int `json:"expired"`
	// Transfers counts files fetched into site stores for this job.
	Transfers int64 `json:"transfers"`
	// Speculated counts speculative (straggler-mitigation) re-dispatches,
	// a subset of Dispatched.
	Speculated int `json:"speculated,omitempty"`
	// Requires and DeadlineMillis echo the submit-time constraints.
	Requires        []string `json:"requires,omitempty"`
	DeadlineMillis  int64    `json:"deadlineMillis,omitempty"`
	SubmittedAtUnix int64    `json:"submittedAtUnix"`
	FinishedAtUnix  int64    `json:"finishedAtUnix,omitempty"`
}

// RegisterRequest enrolls a worker. A nil Site lets the service pick the
// least-loaded site; otherwise the worker is pinned to *Site.
type RegisterRequest struct {
	Site *int `json:"site,omitempty"`
	// Tags are the worker's capability tags (up to 16 of [A-Za-z0-9._-],
	// 64 chars each): jobs submitted with Requires only dispatch to
	// workers carrying every required tag.
	Tags []string `json:"tags,omitempty"`
}

// RegisterResponse assigns the worker its identity: a service-unique ID and
// a (site, worker) slot, which is the core.WorkerRef the schedulers see.
type RegisterResponse struct {
	WorkerID string `json:"workerId"`
	Site     int    `json:"site"`
	Worker   int    `json:"worker"`
	// LeaseTTLMillis is the lease duration for both the worker
	// registration and task assignments; heartbeat at a fraction of it.
	LeaseTTLMillis int64 `json:"leaseTtlMillis"`
}

// PullRequest asks for a task, waiting up to WaitMillis for one to become
// dispatchable (long poll). The server may cap the wait.
type PullRequest struct {
	WaitMillis int64 `json:"waitMillis"`
}

// Assignment is one leased task execution.
type Assignment struct {
	ID    string        `json:"id"`
	JobID string        `json:"jobId"`
	Task  workload.Task `json:"task"`
	// Staged is how many of the task's files were newly fetched into the
	// worker's site store when the assignment was made; a client modelling
	// staging cost (client.WorkerConfig.StageDelay) keys off it.
	Staged int `json:"staged"`
	// LeaseTTLMillis echoes the lease duration; the execution must
	// heartbeat within it or the task is requeued.
	LeaseTTLMillis int64 `json:"leaseTtlMillis"`
}

// PullResponse carries an assignment or an empty-poll notice.
type PullResponse struct {
	Status     string      `json:"status"` // StatusAssigned | StatusEmpty
	Assignment *Assignment `json:"assignment,omitempty"`
	// OpenJobs is the number of jobs still running; a worker configured to
	// exit when the service drains keys off it reaching zero.
	OpenJobs int `json:"openJobs"`
}

// HeartbeatRequest renews an assignment's lease.
type HeartbeatRequest struct {
	WorkerID string `json:"workerId"`
}

// HeartbeatResponse tells the worker whether to keep going.
type HeartbeatResponse struct {
	State string `json:"state"` // HeartbeatActive | HeartbeatCancelled | HeartbeatGone
}

// ReportRequest ends an assignment with an outcome.
type ReportRequest struct {
	WorkerID string `json:"workerId"`
	Outcome  string `json:"outcome"` // OutcomeSuccess | OutcomeFailure
}

// ReportResponse acknowledges a report. Stale means the lease had already
// expired and the task was requeued: the execution's result was discarded
// (this is what guarantees no duplicate completions). Cancelled means the
// execution was a replica obsoleted by another worker's completion.
type ReportResponse struct {
	Accepted  bool   `json:"accepted"`
	Stale     bool   `json:"stale,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
	JobState  string `json:"jobState,omitempty"`
}

// LeaseBatch is one frame of the streaming lease channel
// (GET /v1/workers/{id}/stream). The server pushes a frame whenever the
// arbiter grants this worker leases (up to the stream's batch size k per
// frame), when held executions are cancelled, or as a periodic keepalive.
// A frame with no assignments and no cancellations is that keepalive; it
// still carries a fresh OpenJobs, which is how a drain-watching worker
// learns the service emptied without polling.
type LeaseBatch struct {
	Assignments []Assignment `json:"assignments,omitempty"`
	// Cancelled names held assignments whose executions the server no
	// longer wants (a replica completed elsewhere, or the job was
	// cancelled). The worker should abandon them and report failure; the
	// server counts such reports as cancellations, exactly like the
	// long-poll heartbeat-cancelled path.
	Cancelled []string `json:"cancelled,omitempty"`
	// OpenJobs mirrors PullResponse.OpenJobs.
	OpenJobs int `json:"openJobs"`
}

// ReportItem is one outcome in a batched report.
type ReportItem struct {
	AssignmentID string `json:"assignmentId"`
	Outcome      string `json:"outcome"` // OutcomeSuccess | OutcomeFailure
}

// ReportBatchRequest (POST /v1/workers/{id}/reports) ends up to k
// assignments in one request; the server journals the whole batch through
// a single WAL append (one fsync amortized across it).
type ReportBatchRequest struct {
	Reports []ReportItem `json:"reports"`
}

// ReportBatchResponse carries one ReportResponse per submitted item, in
// order. Individual stale or cancelled outcomes do not fail the batch.
type ReportBatchResponse struct {
	Results []ReportResponse `json:"results"`
}

// WorkerStatus is one registered worker's observable context, returned by
// GET /v1/workers: its slot, tags, held leases, and the telemetry EWMAs
// the context-aware policies score with (docs/SCHEDULING.md).
type WorkerStatus struct {
	WorkerID string   `json:"workerId"`
	Site     int      `json:"site"`
	Worker   int      `json:"worker"`
	Tags     []string `json:"tags,omitempty"`
	// Assignments is the number of leases the worker currently holds.
	Assignments int `json:"assignments"`
	// MeanTaskMillis is the slot's task-duration EWMA (0 until the first
	// completed task).
	MeanTaskMillis float64 `json:"meanTaskMillis"`
	// FailureRate is the slot's failure-indicator EWMA in [0, 1].
	FailureRate float64 `json:"failureRate"`
	// Samples counts completed-task duration observations for the slot;
	// Events counts all outcome observations (successes + failures).
	Samples int64 `json:"samples"`
	Events  int64 `json:"events"`
	// ExpiresAtUnix is when the worker's registration lease lapses unless
	// renewed.
	ExpiresAtUnix int64 `json:"expiresAtUnix"`
}

// TenantStatus is the fair-share arbiter's view of one tenant, returned by
// GET /v1/tenants and rendered as labeled gauges at /metrics.
type TenantStatus struct {
	// Tenant is the tenant name; "" is the anonymous default tenant that
	// jobs submitted without a tenant belong to.
	Tenant string `json:"tenant"`
	// Weight is the summed weight of the tenant's running jobs.
	Weight int64 `json:"weight"`
	// RunningJobs counts the tenant's resident running jobs.
	RunningJobs int `json:"runningJobs"`
	// InFlight is the tenant's currently leased assignments.
	InFlight int `json:"inFlight"`
	// MaxInFlight is the resolved concurrency quota enforced at lease
	// grant (0: unlimited). Per-tenant overrides set via PUT /v1/tenants
	// take precedence over the server-wide default.
	MaxInFlight int `json:"maxInFlight"`
	// ShareTarget is Weight over the total weight of all running jobs —
	// the dispatch fraction the arbiter steers toward while the tenant
	// has runnable work.
	ShareTarget float64 `json:"shareTarget"`
	// ShareAchieved is the tenant's fraction of the most recent dispatches
	// (a sliding window; see /metrics gridsched_tenant_share_achieved).
	ShareAchieved float64 `json:"shareAchieved"`
	// Dispatches counts the tenant's task dispatches (including
	// re-dispatches), surviving restarts on a journaled server.
	Dispatches int64 `json:"dispatches"`
	// Throttles counts dispatch opportunities skipped because the tenant
	// was at its MaxInFlight quota. Process-local.
	Throttles int64 `json:"throttles"`
}

// TenantQuotaRequest (PUT /v1/tenants/{tenant}) overrides one tenant's
// concurrency quota. MaxInFlight > 0 caps the tenant's concurrently leased
// assignments; 0 reverts the tenant to the server-wide default; negative
// values are rejected. On a journaled server the override survives
// restarts.
type TenantQuotaRequest struct {
	MaxInFlight int `json:"maxInFlight"`
}

// PartitionInfo describes one partition of a horizontally partitioned
// deployment (docs/PARTITIONING.md).
type PartitionInfo struct {
	// Index is the partition's identity: it owns exactly the ids whose
	// numeric part ≡ Index (mod PartitionTopology.Count).
	Index int `json:"index"`
	// URL is the partition's base URL. Set by the router (which knows the
	// deployment); a partition answering directly reports only itself.
	URL string `json:"url,omitempty"`
	// Up is the router's live view of the partition (a fresh probe or the
	// outcome of the request being answered). A partition answering about
	// itself is trivially up.
	Up bool `json:"up"`
	// Status carries the partition's readiness status ("ready",
	// "recovering", a role) when known, or the probe error when Up is
	// false.
	Status string `json:"status,omitempty"`
}

// PartitionTopology is the GET /v1/partitions body: the deployment's
// partitions and their liveness, for operators and probes.
type PartitionTopology struct {
	// Count is the number of partitions; 1 means unpartitioned.
	Count int `json:"count"`
	// Self is the answering partition's own index; absent (0) on a router,
	// which speaks for all of them.
	Self int `json:"self,omitempty"`
	// Partitions lists every partition with its URL and health, in index
	// order. Only the router fills it; a bare partition leaves it empty.
	Partitions []PartitionInfo `json:"partitions,omitempty"`
}

// PartitionsDownHeader is set by the router on aggregated reads that
// succeeded only partially: a comma-separated list of partition indexes
// that could not be reached. Its presence means totals are a lower bound.
const PartitionsDownHeader = "X-Gridsched-Partitions-Down"

// SubmissionIDHeader repeats a submit's idempotency key
// (SubmitJobRequest.SubmissionID) beside the body, which lets the router
// place the request on the key's partition without reading the body. The
// partition, which decodes the body anyway, refuses a header that disagrees
// with it.
const SubmissionIDHeader = "X-Gridsched-Submission-Id"

// Health is the /healthz body.
type Health struct {
	Status  string `json:"status"` // "ok"
	Jobs    int    `json:"jobs"`
	Workers int    `json:"workers"`
	// OpenJobs counts jobs still running (Jobs includes completed ones
	// until they are deleted). The partition router reads it to place
	// fresh worker registrations on the partition with work waiting.
	OpenJobs int `json:"openJobs"`
}

// Replication roles, reported by GET /readyz so load balancers can route
// writes to the leader only.
const (
	// RoleLeader serves reads and writes and streams its WAL to followers.
	RoleLeader = "leader"
	// RoleFollower replicates the leader's WAL, serves read-only status,
	// and rejects mutations with 421 + a leader redirect hint.
	RoleFollower = "follower"
	// RoleRecovering is a daemon still replaying snapshot + journal (or a
	// follower mid-promotion); not ready for traffic.
	RoleRecovering = "recovering"
)

// LeaderHeader is the response header carrying the leader's base URL on a
// follower's 421 rejection (and on its /readyz), so clients and load
// balancers learn where writes go.
const LeaderHeader = "X-Gridsched-Leader"

// Readiness is the /readyz body. "ready" (200) once recovery completed
// and the service answers traffic; "recovering" (503) while a daemon that
// bound its listener early is still replaying snapshot + journal. A
// follower reports "ready" with Role "follower": ready for read-only
// traffic, never for writes — route on Role, not just status.
type Readiness struct {
	Status string `json:"status"` // "ready" | "recovering"
	// Role distinguishes leaders from followers (RoleLeader, RoleFollower,
	// RoleRecovering).
	Role string `json:"role,omitempty"`
	// LastLSN is the last journal LSN this node holds (0 without -data-dir).
	LastLSN uint64 `json:"lastLsn,omitempty"`
	// LeaderLSN (followers) is the leader's last announced LSN.
	LeaderLSN uint64 `json:"leaderLsn,omitempty"`
	// LagLSN (followers) is LeaderLSN - LastLSN: how far replication is
	// behind, in journal records.
	LagLSN uint64 `json:"lagLsn,omitempty"`
	// Leader (followers) is the leader's base URL.
	Leader string `json:"leader,omitempty"`
}

// PromoteResponse acknowledges POST /v1/replication/promote: the follower
// finished recovery over its replicated state and now serves as leader.
type PromoteResponse struct {
	Role    string `json:"role"` // RoleLeader
	LastLSN uint64 `json:"lastLsn"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
