// Package service implements gridschedd: an embeddable scheduler daemon
// that wraps the paper's core.Scheduler strategies behind a concurrent,
// networked worker protocol (HTTP/JSON, see internal/service/api).
//
// The daemon is the middleware the paper's worker-centric model implies:
// workers are remote parties that register, long-poll for tasks, heartbeat
// their leases, and report outcomes; jobs are whole Bag-of-Tasks workloads
// submitted with a per-job algorithm choice, and several jobs can be
// resident at once. Per-site file stores live behind the service — a task
// is staged into its worker's site store at assignment time, and the
// scheduler observes the resulting batch commit through NoteBatch just as
// it does under the simulator. (Unlike the simulator's data server, which
// serves one batch at a time and charges transfer delay before the commit,
// the service commits instantly at assignment; clients model staging cost
// on their side from the Staged count. Timing fidelity to the paper's
// model is the simulator's job; the service's job is throughput.)
//
// Fault tolerance is lease-based: every assignment carries a deadline,
// heartbeats renew it, and an expired lease requeues the task through the
// scheduler's existing failure path (core.Scheduler.OnExecutionFailed). A
// report that arrives after its lease expired is rejected as stale, which
// is what guarantees a task is never completed twice.
//
// # Concurrency model
//
// One lock, Service.mu, guards the service's state: every job and live
// lease, the fair-share arbiter, tenant quotas and the submission index
// (see docs/ARCHITECTURE.md, "Concurrency model"). A dispatch decision,
// its quota check, the scheduler call and the journal append of its record
// all happen in one hold, so the WAL order of events is the order they
// were applied in. Beside it sit leaf locks, taken after Service.mu and
// never the other way round: the worker registry (leases.go), the wakeup
// hub and the worker telemetry (context.go). snapMu serializes checkpoints
// and is taken before Service.mu; the journal writer orders appends itself
// and fsync waits happen outside every lock. Long-poll waiters park
// outside every lock on the hub and are woken by any state change that
// could make new work dispatchable. Scale-out is a partition per process
// behind gridrouter (docs/PARTITIONING.md), not more locks in one.
package service

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/storage"
	"gridsched/internal/workload"

	"gridsched/internal/service/api"
)

// Topology fixes the worker pool the service schedules over: the same
// (sites × workers-per-site) grid the core schedulers expect, plus each
// site's store capacity.
type Topology struct {
	Sites          int            `json:"sites"`
	WorkersPerSite int            `json:"workersPerSite"`
	CapacityFiles  int            `json:"capacityFiles"`
	Policy         storage.Policy `json:"policy"`
}

// CheckWorkload reports whether every task of w can be staged at a site:
// a task needs all its inputs resident at once (assumption 5), so the
// largest task must fit the per-site store capacity.
func (t Topology) CheckWorkload(w *workload.Workload) error {
	maxFiles := 0
	for _, task := range w.Tasks {
		if len(task.Files) > maxFiles {
			maxFiles = len(task.Files)
		}
	}
	if maxFiles > t.CapacityFiles {
		return fmt.Errorf("capacity %d below largest task (%d files)", t.CapacityFiles, maxFiles)
	}
	return nil
}

// SchedulerFactory builds a scheduler by algorithm name for one submitted
// job. gridsched.SchedulerFactory supplies the canonical one (all of
// AlgorithmNames); a server embedding the service may restrict or extend
// the set.
type SchedulerFactory func(algorithm string, w *workload.Workload, topo Topology, seed int64) (core.Scheduler, error)

// Config parameterizes a Service.
type Config struct {
	Topology
	// LeaseTTL is the lease duration for worker registrations and task
	// assignments. Defaults to 15s.
	LeaseTTL time.Duration
	// SweepInterval is how often the expiry sweeper runs. Defaults to
	// LeaseTTL/4. Expiry is additionally checked on every pull, so the
	// sweeper only matters when no worker is polling.
	SweepInterval time.Duration
	// NewScheduler resolves the algorithm name of every submitted job, and
	// recovery rebuilds every running job's scheduler through it. Required;
	// gridsched.NewService fills in gridsched.SchedulerFactory.
	NewScheduler SchedulerFactory

	// PartitionIndex and PartitionCount place this service in a
	// horizontally partitioned deployment (docs/PARTITIONING.md): N
	// independent gridschedd processes behind a job-keyed router
	// (cmd/gridrouter). Partition identity is encoded into minted ids:
	// partition i of n mints job/assignment/worker sequence numbers ≡ i
	// (mod n), so any component holding an id — the router, a
	// partition-aware client — can name the
	// owning partition with arithmetic alone, no lookup table. The zero
	// value (0 of 0) normalizes to the standalone identity 0 of 1, whose
	// id sequence is byte-identical to the pre-partitioning one. The
	// identity is persisted in snapshots; a DataDir written under one
	// identity refuses to recover under another (re-partitioning is a
	// migration, not a flag flip).
	PartitionIndex int
	PartitionCount int

	// TenantMaxInFlight caps any one tenant's concurrently leased
	// assignments (enforced at lease grant, returned on report or lease
	// expiry). 0 disables the cap. Per-tenant overrides set via
	// SetTenantQuota (PUT /v1/tenants/{tenant}) take precedence.
	TenantMaxInFlight int

	// DataDir enables durability: every externally visible mutation is
	// written to a write-ahead journal under this directory before it is
	// acknowledged, and New replays snapshot+journal to reconstruct the
	// service exactly as the previous process left it (see recovery.go).
	// Empty means in-memory only, the pre-journal behavior.
	DataDir string
	// Fsync selects the journal's machine-crash durability (process
	// crashes lose nothing in any mode): journal.SyncAlways groups
	// concurrent acknowledgements into shared fsyncs; journal.SyncBatch
	// (default) fsyncs every fsyncInterval; journal.SyncNever only syncs
	// at snapshots.
	Fsync journal.Mode
	// SnapshotEvery is how many journal records accumulate before the
	// service writes a compacting snapshot and rotates the journal.
	// Defaults to 4096.
	SnapshotEvery int

	// Clock overrides the service's time source: journal timestamps,
	// lease deadlines, and sweep scheduling all read it. Nil uses
	// time.Now. The policy-trace harness injects a fake clock here so
	// time-driven behavior (expiry, straggler detection, deadline
	// urgency) is a deterministic function of the scripted timeline.
	Clock func() time.Time

	// Speculation enables straggler mitigation: the sweeper compares
	// each live lease's age against the owning job's observed
	// task-duration distribution and grants a speculative second lease
	// for the slowest stragglers; first report wins, the loser is
	// rejected as stale. See docs/SCHEDULING.md.
	Speculation bool
}

// fsyncInterval is the journal.SyncBatch flush cadence.
const fsyncInterval = 25 * time.Millisecond

func (c *Config) normalize() error {
	switch {
	case c.Sites < 1:
		return fmt.Errorf("service: Sites = %d", c.Sites)
	case c.WorkersPerSite < 1:
		return fmt.Errorf("service: WorkersPerSite = %d", c.WorkersPerSite)
	case c.CapacityFiles < 1:
		return fmt.Errorf("service: CapacityFiles = %d", c.CapacityFiles)
	}
	if c.Policy == 0 {
		c.Policy = storage.LRU
	}
	if _, err := storage.New(c.CapacityFiles, c.Policy); err != nil {
		// Site stores are built on first use; refuse here what would
		// otherwise fail a job's first dispatch.
		return fmt.Errorf("service: %w", err)
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.LeaseTTL / 4
	}
	if c.PartitionCount == 0 {
		c.PartitionCount = 1
	}
	if c.PartitionCount < 0 {
		return fmt.Errorf("service: PartitionCount = %d", c.PartitionCount)
	}
	if c.PartitionIndex < 0 || c.PartitionIndex >= c.PartitionCount {
		return fmt.Errorf("service: PartitionIndex %d outside [0,%d)", c.PartitionIndex, c.PartitionCount)
	}
	if c.TenantMaxInFlight < 0 {
		return fmt.Errorf("service: TenantMaxInFlight = %d", c.TenantMaxInFlight)
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 4096
	}
	if c.NewScheduler == nil {
		return fmt.Errorf("service: no NewScheduler factory (jobs are built, and recovered, by algorithm name)")
	}
	return nil
}

// maxPullWait caps one long-poll request; clients just pull again.
const maxPullWait = 30 * time.Second

// maxTenantName bounds tenant names (they become metrics label values and
// journal payload).
const maxTenantName = 128

// validateFairShare rejects malformed tenant/weight parameters. O(name
// length); submission paths run it before scheduler construction so a
// doomed request never pays the O(workload) factory cost.
func validateFairShare(req *api.SubmitJobRequest) error {
	if req.Weight < 0 || req.Weight > maxWeight {
		return errf(http.StatusBadRequest, "service: weight %d outside [0,%d]", req.Weight, maxWeight)
	}
	if !validTenantName(req.Tenant) {
		return errf(http.StatusBadRequest,
			"service: invalid tenant name %q (up to %d of [A-Za-z0-9._-])", req.Tenant, maxTenantName)
	}
	return nil
}

// validTenantName restricts tenant names to characters that survive every
// place a tenant name travels: a single URL path segment (PUT
// /v1/tenants/{tenant}), a Prometheus label value, a JSON field. "" (the
// default tenant) is valid on submission but not addressable by PUT.
// "." and ".." are excluded outright: ServeMux path-cleans them away, so
// such a tenant could be created but never addressed.
func validTenantName(name string) bool {
	if len(name) > maxTenantName || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Error is a protocol-level failure with an HTTP status.
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

func errf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// job is one resident workload. Its replicated state — state, the
// counters, the table of open executions, the ledger — changes only
// through apply (jobstate.go). Workload, scheduler and site stores are
// attachments: a leader's running job has them, a standby's shell only the
// workload and only until a checkpoint has stored it, and completion
// releases them (with the ledger) so a long-running daemon does not
// accumulate every finished job's heavy state; the status summary fields
// survive. stores has an entry per site, nil until a batch is committed
// there (storeAt).
//
// Locking: id, name, algorithm, seed, submissionID, tenant, weight, and
// seq are immutable after registration. Everything else is guarded by
// Service.mu.
type job struct {
	id           string
	name         string
	algorithm    string
	seed         int64
	submissionID string // client-chosen idempotency key, "" when absent
	tasks        int
	w            *workload.Workload
	sched        core.Scheduler
	stores       []*storage.Store
	state        string // api.JobRunning | api.JobCompleted

	// Fair-share state (see arbiter.go, dispatch.go). tenant and weight
	// are resolved at submission ("" = default tenant; weight never below
	// 1) and journaled resolved, so a changed server default cannot skew
	// recovery. seq is the numeric part of the job id, the deterministic
	// tie-breaker. fair is the virtual finish tag; heapIdx the
	// arbiter-heap position (-1: not runnable/not in heap).
	tenant  string
	weight  int
	seq     int64
	fair    uint64
	heapIdx int
	// ledger is the job's replay history (journaling only): the ordered
	// dispatch/report/expiry events that, replayed through a freshly built
	// scheduler, reproduce its exact state. Kept in its packed snapshot
	// form (checkpoint.go); released on completion with the rest of the
	// heavy state.
	ledger packedLedger
	// execs is the table of open executions, keyed by task; a task's
	// replicas chain through exec.next. Nil while nothing is open.
	execs map[workload.TaskID]*exec
	// twins counts the open executions that are speculative twins, so the
	// dispatch path's twinAt costs nothing while there are none.
	twins int

	// Context-aware scheduling state (docs/SCHEDULING.md). requires and
	// deadlineMs are immutable after registration and journaled with the
	// submit record; urgent is a sweep-maintained cache of the deadline
	// projection read by the dispatch candidate ordering. durs,
	// specPending, and specMarked are liveness state for
	// straggler detection: the ring of recent task durations, the sorted
	// queue of straggling tasks awaiting a speculative twin, and the
	// tasks already queued or twinned (so one straggler is speculated at
	// most once at a time). None of the three is journaled — after a
	// crash there are no live leases left to speculate on.
	requires    []string
	deadlineMs  int64 // soft deadline, unix millis; 0 = none
	urgent      bool
	durs        durRing
	specPending []workload.TaskID
	specMarked  map[workload.TaskID]bool
	// speculated counts speculative grants over the job's lifetime; it
	// is journaled via the ledger and part of the recovery identity.
	speculated int

	dispatched int
	completed  int
	failed     int
	cancelled  int
	expired    int
	transfers  int64
	submitted  time.Time
	finished   time.Time
}

// worker is one registered remote worker holding a (site, worker) slot.
// Guarded by the registry mutex.
type worker struct {
	id      string
	ref     core.WorkerRef
	expires time.Time
	// tags are the capability tags the worker registered with; jobs with
	// a requires list only dispatch to workers carrying every tag.
	tags []string
	// assignments are the worker's outstanding leases by assignment id: at
	// most one under a long-poll pull, up to the batch size under a stream.
	assignments map[string]*assignment
	// attached names the worker's lease session, of which it has at most one
	// at a time — pullSession or streamSession — and is "" between sessions;
	// sessions counts the ones it has had, which is how a pull tells that a
	// newer session took its place (see attachWorker).
	attached string
	sessions uint64
	// wake is the worker-targeted nudge: a finished lease frees a place for
	// THIS worker's session only, which must not broadcast-wake every parked
	// one. Buffered(1), never closed.
	wake chan struct{}
}

// nudge wakes the worker's parked session, if it has one.
func (w *worker) nudge() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// The two kinds of lease session, as they read in a 409.
const (
	pullSession   = "pull"
	streamSession = "lease stream"
)

// assignment is a live lease on one execution: the lease-only state
// around the job-table entry x (which holds task, slot, speculative and
// cancelled). Everything but deadline is immutable; deadline is guarded by
// Service.mu.
type assignment struct {
	id       string
	job      *job
	x        *exec
	workerID string
	deadline time.Time
	staged   int
}

// hub is the long-poll wakeup primitive: waiters grab the current channel
// BEFORE scanning for work and park on it; a broadcast closes the channel
// and replaces it, so any state change after the waiter subscribed is
// never lost. Leaf lock — a hub never acquires another service lock.
type hub struct {
	mu sync.Mutex
	ch chan struct{}
}

func newHub() *hub { return &hub{ch: make(chan struct{})} }

// wait returns the channel the next broadcast will close.
func (h *hub) wait() <-chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ch
}

// broadcast wakes every parked waiter.
func (h *hub) broadcast() {
	h.mu.Lock()
	close(h.ch)
	h.ch = make(chan struct{})
	h.mu.Unlock()
}

// Service is the gridschedd core. Create with New, expose with Handler,
// stop with Close.
type Service struct {
	cfg      Config
	counters *metrics.ServiceCounters
	// repl tracks WAL-replication activity: streams and frames a leader
	// served to followers, frames and snapshots a standby applied.
	repl *metrics.ReplicationCounters
	// jmet is the journal writer's activity (zero without DataDir).
	jmet *journal.Metrics
	// standby is the Follower this state is the replica of, nil on a leader.
	// A replica has no scheduler factory, so its jobs are shells.
	standby *Follower

	// instance is a per-process nonce suffixed onto worker ids: worker
	// registrations are not journaled, so after a recovery a fresh id
	// sequence could otherwise re-mint a pre-crash worker id while its
	// original holder is still retrying against it.
	instance string
	// pst is the journaling state; nil when Config.DataDir is unset.
	pst *persistence

	seq    atomic.Int64 // job/assignment/worker id sequence
	closed atomic.Bool

	// mu guards the fields from here to cands, pst.carry, and every job and
	// assignment reachable from them (see the package comment). reg, hub
	// and tel are leaf locks taken after it.
	mu sync.Mutex
	// jobs holds every resident job record by id; assignments every live
	// lease by assignment id.
	jobs        map[string]*job
	assignments map[string]*assignment
	// arb is the fair-share arbiter and the per-tenant quota table;
	// submissions maps client idempotency keys to job ids.
	arb         arbiter
	submissions map[string]string
	// stage is the staging scratch of every live apply; cands is
	// dispatchOnce's candidate heap.
	stage staging
	cands []*job

	reg *registry
	hub *hub
	// tel is the per-slot worker-context store (tags + outcome EWMAs),
	// fed from report traffic and consumed by context-aware schedulers,
	// GET /v1/workers, and /metrics. Leaf lock.
	tel *telemetry

	// nextSweep is the earliest known lease deadline (unix nanos);
	// maybeSweep skips the sweep until it is due. 0 means unknown (sweep
	// next time). It may lag behind a deadline created
	// mid-sweep, which costs at most one SweepInterval of expiry delay —
	// the background sweeper runs unconditionally.
	nextSweep atomic.Int64

	snapMu    sync.Mutex // serializes stop-the-world snapshots
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// New builds a service and starts its lease sweeper. With cfg.DataDir set
// it first recovers the previous process's state from snapshot + journal;
// the service is not reachable until recovery finished, so every response
// it ever gives reflects the recovered history.
func New(cfg Config) (*Service, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	var nonce [4]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	s := newState(cfg)
	s.instance = hex.EncodeToString(nonce[:])
	if s.pst != nil {
		if err := s.recover(); err != nil {
			if s.pst.w != nil {
				_ = s.pst.w.Close()
			}
			return nil, err
		}
	}
	go s.sweeper()
	return s, nil
}

// newState builds a service's state domains over a normalized cfg, empty
// and with nothing running: no sweeper, no journal open yet. New turns it
// into a live service; a Follower keeps one, with no scheduler factory, as
// its replica of the leader (open, then applyRecord per streamed frame).
func newState(cfg Config) *Service {
	s := &Service{
		cfg:         cfg,
		counters:    metrics.NewServiceCounters(),
		repl:        &metrics.ReplicationCounters{},
		jmet:        &journal.Metrics{},
		jobs:        make(map[string]*job),
		assignments: make(map[string]*assignment),
		arb:         newArbiter(),
		submissions: make(map[string]string),
		reg:         newRegistry(cfg.Sites, cfg.WorkersPerSite),
		hub:         newHub(),
		tel:         newTelemetry(cfg.Topology),
		sweepStop:   make(chan struct{}),
		sweepDone:   make(chan struct{}),
	}
	if cfg.DataDir != "" {
		s.pst = &persistence{dir: cfg.DataDir, mark: time.Now()}
	}
	// Seed the id sequence into this partition's residue class: nextSeq
	// strides by PartitionCount, so every value it ever mints stays
	// ≡ PartitionIndex (mod PartitionCount). Standalone (0 of 1) yields
	// the classic 1, 2, 3, …
	s.seq.Store(int64(cfg.PartitionIndex))
	return s
}

// Counters exposes the service's metrics (also rendered at /metrics).
func (s *Service) Counters() *metrics.ServiceCounters { return s.counters }

// Close stops the sweeper and fails every parked long poll; with
// journaling enabled it then writes a final snapshot (making the next
// start a snapshot-only recovery) and closes the journal. Idempotent.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.sweepStop)
	s.hub.broadcast()
	<-s.sweepDone
	if s.pst != nil {
		s.snapMu.Lock()
		if err := s.snapshot(); err != nil {
			log.Printf("gridschedd: final snapshot: %v", err)
		}
		s.snapMu.Unlock()
		if err := s.pst.w.Close(); err != nil {
			// The snapshot above already persisted everything; the journal
			// close failing loses nothing, but say so.
			log.Printf("gridschedd: journal close: %v", err)
		}
	}
}

// now is the service clock (Config.Clock when set, else time.Now). All
// scheduling-visible time — journal timestamps, lease deadlines, sweep
// decisions — goes through it; wall-clock plumbing like long-poll park
// timers stays on real time.
func (s *Service) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// sweeper periodically expires leases even when no worker is polling.
func (s *Service) sweeper() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-t.C:
			s.maybeSweep(s.now())
		}
	}
}

// nextSeq mints the next id sequence number. The stride keeps the value
// in the partition's residue class (see Config.PartitionIndex); recovery
// restores seq from ids of the same class, so the invariant survives
// restarts.
func (s *Service) nextSeq() int64 {
	return s.seq.Add(int64(s.cfg.PartitionCount))
}

// nextID mints "<prefix><seq>" in one allocation (it runs per grant).
func (s *Service) nextID(prefix byte) string {
	var buf [20]byte
	return string(strconv.AppendInt(append(buf[:0], prefix), s.nextSeq(), 10))
}

// SubmitJob is the one way a job enters the service, and the path behind
// POST /v1/jobs: it validates the request, builds the job's scheduler from
// the configured factory, journals the submit record (before
// acknowledging) and registers the job. The record is appended under the
// service lock, in the same critical section that admits the job at the
// current virtual time: the WAL position of a submit record relative
// to dispatch records is what lets recovery reconstruct the admission tag
// bit-exactly.
//
// req.SubmissionID, when non-empty, is an idempotency key: a resubmission
// carrying the same key returns the original job's id instead of creating
// a duplicate, which is what lets a client safely retry a submission whose
// acknowledgement was lost to a connection failure or a server restart.
// With journaling enabled the key survives restarts.
func (s *Service) SubmitJob(req api.SubmitJobRequest) (string, error) {
	name, w, submissionID := req.Name, req.Workload, req.SubmissionID
	if w == nil {
		return "", errf(http.StatusBadRequest, "service: nil workload")
	}
	// Cheap rejections before the factory call: scheduler construction is
	// O(workload) and not worth paying for a request that cannot land.
	if err := validateFairShare(&req); err != nil {
		return "", err
	}
	if submissionID != "" {
		// Fast path: an already-known key skips scheduler construction.
		s.mu.Lock()
		id, ok := s.submissions[submissionID]
		s.mu.Unlock()
		if ok {
			return id, nil
		}
	}
	sched, err := s.buildScheduler(req.Algorithm, w, req.Seed)
	if err != nil {
		return "", errf(http.StatusBadRequest, "service: %v", err)
	}
	if err := validateTags("requires tag", req.Requires); err != nil {
		return "", err
	}
	if req.DeadlineMillis < 0 {
		return "", errf(http.StatusBadRequest, "service: deadlineMillis = %d", req.DeadlineMillis)
	}
	if err := w.Validate(); err != nil {
		return "", errf(http.StatusBadRequest, "service: %v", err)
	}
	if err := s.cfg.CheckWorkload(w); err != nil {
		return "", errf(http.StatusBadRequest, "service: %v", err)
	}
	if s.closed.Load() {
		return "", errf(http.StatusServiceUnavailable, "service: closed")
	}
	now := s.now()
	// The submit record is the job's definition in every role: recovery and
	// the standby build their shell from it with the same newJob. Tenant and
	// weight go in resolved (weight never zero).
	rec := &record{
		Op: opSubmit, Ts: now.UnixMilli(), Job: s.nextID('j'),
		Name: name, Algorithm: req.Algorithm, Seed: req.Seed, Submission: submissionID,
		Tenant: req.Tenant, Weight: normalizeWeight(req.Weight),
		Requires: slices.Clone(req.Requires), Deadline: req.DeadlineMillis,
		Workload: w,
	}
	j := s.newJob(rec, len(rec.Workload.Tasks))
	s.attach(j, w, sched)
	// Everything the record says is settled by now, so encode it before
	// taking the lock: it carries the workload, and encoding a 6,000-task
	// one takes a millisecond or two all dispatch would otherwise sit out.
	var payload []byte
	if s.pst != nil {
		// Sized as api.EncodeWorkload sizes its document, which is nearly
		// all of the record.
		payload = rec.appendTo(make([]byte, 0, 512+128*len(w.Tasks)))
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return "", errf(http.StatusServiceUnavailable, "service: closed")
	}
	if id, ok := s.submissions[submissionID]; ok {
		// Lost ack resent: the job already exists.
		s.mu.Unlock()
		return id, nil
	}
	var lsn uint64
	if s.pst != nil {
		lsn, err = s.appendEncoded(payload)
		if err != nil {
			s.mu.Unlock()
			return "", err
		}
	}
	s.addJobLocked(j, s.arb.vtime)
	s.counters.JobsSubmitted.Add(1)
	s.counters.OpenJobs.Add(1)
	if j.tasks == 0 {
		s.completeJob(j, rec.Ts)
		s.jobCompleted()
	}
	s.mu.Unlock()
	s.hub.broadcast()
	s.snapshotIfDue()
	if err := s.waitDurable(lsn); err != nil {
		// The job is journaled and resident but the configured durability
		// could not be confirmed; surface that. An idempotent retry
		// resolves to the same job id.
		return "", err
	}
	return j.id, nil
}

// buildScheduler resolves an algorithm name through the configured
// factory. The "context:" prefix wraps the named strategy in the
// context-aware gate fed by the service's worker telemetry; the prefixed
// name is what gets journaled, so recovery rebuilds the same wrapping.
func (s *Service) buildScheduler(algorithm string, w *workload.Workload, seed int64) (core.Scheduler, error) {
	if inner, ok := strings.CutPrefix(algorithm, "context:"); ok {
		sched, err := s.cfg.NewScheduler(inner, w, s.cfg.Topology, seed)
		if err != nil {
			return nil, err
		}
		return core.NewContextAware(sched, s.tel), nil
	}
	return s.cfg.NewScheduler(algorithm, w, s.cfg.Topology, seed)
}

// DeleteJob drops a completed job's record (retention control for
// long-running daemons). Running jobs cannot be deleted. With journaling,
// the job's monotone counter totals are folded into a carry persisted with
// every snapshot, so deletion never makes the global /metrics counters
// jump backwards across a restart.
func (s *Service) DeleteJob(jobID string) error {
	s.mu.Lock()
	j := s.jobs[jobID]
	if j == nil {
		s.mu.Unlock()
		return errf(http.StatusNotFound, "service: unknown job %q", jobID)
	}
	if j.state != api.JobCompleted {
		s.mu.Unlock()
		return errf(http.StatusConflict, "service: job %q is %s; only completed jobs can be deleted", jobID, j.state)
	}
	var lsn uint64
	if s.pst != nil {
		var err error
		lsn, err = s.appendRecord(&record{Op: opDelete, Ts: s.now().UnixMilli(), Job: jobID})
		if err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.dropJobLocked(j)
	s.mu.Unlock()
	s.snapshotIfDue()
	return s.waitDurable(lsn)
}

// JobStatus returns one job's observable state.
func (s *Service) JobStatus(jobID string) (*api.JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[jobID]
	if j == nil {
		return nil, errf(http.StatusNotFound, "service: unknown job %q", jobID)
	}
	st := jobStatusLocked(j)
	return &st, nil
}

// Jobs lists every resident job in submission order.
func (s *Service) Jobs() []api.JobStatus {
	s.mu.Lock()
	out := make([]api.JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, jobStatusLocked(j))
	}
	s.mu.Unlock()
	// Submission order: job ids are minted from one sequence.
	sort.Slice(out, func(i, k int) bool { return idNum(out[i].ID) < idNum(out[k].ID) })
	return out
}

// jobStatusLocked copies one job's summary, in either role. Callers hold
// s.mu.
func jobStatusLocked(j *job) api.JobStatus {
	st := api.JobStatus{
		ID:              j.id,
		Name:            j.name,
		Algorithm:       j.algorithm,
		State:           j.state,
		Tenant:          j.tenant,
		Weight:          j.weight,
		Tasks:           j.tasks,
		Remaining:       j.remaining(),
		Dispatched:      j.dispatched,
		Completed:       j.completed,
		Failed:          j.failed,
		Cancelled:       j.cancelled,
		Expired:         j.expired,
		Speculated:      j.speculated,
		Transfers:       j.transfers,
		Requires:        j.requires,
		DeadlineMillis:  j.deadlineMs,
		SubmittedAtUnix: j.submitted.Unix(),
	}
	if !j.finished.IsZero() {
		st.FinishedAtUnix = j.finished.Unix()
	}
	return st
}

// SetTenantQuota overrides one tenant's in-flight concurrency quota — the
// path behind PUT /v1/tenants/{tenant}. maxInFlight > 0 caps the tenant's
// concurrently leased assignments; 0 reverts to Config.TenantMaxInFlight.
// With journaling enabled the override is journaled before it is
// acknowledged and survives restarts.
func (s *Service) SetTenantQuota(tenant string, maxInFlight int) (*api.TenantStatus, error) {
	if tenant == "" {
		return nil, errf(http.StatusBadRequest, "service: empty tenant name (the default tenant's quota is the server-wide -tenant-quota)")
	}
	if !validTenantName(tenant) {
		return nil, errf(http.StatusBadRequest,
			"service: invalid tenant name %q (up to %d of [A-Za-z0-9._-])", tenant, maxTenantName)
	}
	if maxInFlight < 0 {
		return nil, errf(http.StatusBadRequest, "service: maxInFlight = %d", maxInFlight)
	}
	if s.closed.Load() {
		return nil, errf(http.StatusServiceUnavailable, "service: closed")
	}
	s.mu.Lock()
	var lsn uint64
	if s.pst != nil {
		var err error
		lsn, err = s.appendRecord(&record{
			Op: opQuota, Ts: s.now().UnixMilli(), Tenant: tenant, Quota: maxInFlight,
		})
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	t := s.arb.tenant(tenant)
	t.quota = maxInFlight
	st := s.tenantStatusLocked(t, s.arb.runnableWeight())
	// Reverting a jobless tenant's quota leaves nothing relevant about it;
	// drop the state rather than let reverted names accumulate.
	s.arb.prune(tenant)
	s.mu.Unlock()
	// A raised (or lifted) quota can make a throttled tenant's work
	// dispatchable; wake parked pulls rather than leaving them to their
	// poll timeout. Rare operator action, so no need to be selective.
	s.hub.broadcast()
	s.snapshotIfDue()
	if err := s.waitDurable(lsn); err != nil {
		return nil, err
	}
	return &st, nil
}

// Tenants returns every known tenant's fair-share state, sorted by name
// (the anonymous default tenant, "", sorts first when present).
func (s *Service) Tenants() []api.TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.arb.tenants))
	for name := range s.arb.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	total := s.arb.runnableWeight()
	out := make([]api.TenantStatus, 0, len(names))
	for _, name := range names {
		out = append(out, s.tenantStatusLocked(s.arb.tenants[name], total))
	}
	return out
}

// TenantWeight returns a tenant's current fair-share weight — the summed
// weight of its running jobs — or 0 for a tenant with none. The ingress
// chain uses it to scale rate limits and order load shedding, so the
// same signal that divides dispatch capacity (arbiter) also divides
// admission: a tenant running weight-4 work sheds after one running
// weight-1 work.
func (s *Service) TenantWeight(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.arb.tenants[tenant]; t != nil {
		return t.weight
	}
	return 0
}

// tenantStatusLocked copies one tenant's status. Callers hold s.mu.
func (s *Service) tenantStatusLocked(t *tenantState, totalWeight int64) api.TenantStatus {
	st := api.TenantStatus{
		Tenant:        t.name,
		Weight:        t.weight,
		RunningJobs:   t.running,
		InFlight:      t.inFlight,
		MaxInFlight:   s.arb.quotaFor(t, s.cfg.TenantMaxInFlight),
		ShareAchieved: s.arb.window.Share(t.name),
		Dispatches:    t.dispatches,
		Throttles:     t.throttles,
	}
	if totalWeight > 0 {
		st.ShareTarget = float64(t.weight) / float64(totalWeight)
	}
	return st
}

// Workers lists every live registered worker with its slot, tags, lease
// count, and observed context — the path behind GET /v1/workers. Sorted
// by (site, worker); the registry holds at most one live registration
// per slot, so the order is total.
func (s *Service) Workers() []api.WorkerStatus {
	s.reg.mu.Lock()
	out := make([]api.WorkerStatus, 0, len(s.reg.workers))
	for _, w := range s.reg.workers {
		out = append(out, api.WorkerStatus{
			WorkerID:      w.id,
			Site:          w.ref.Site,
			Worker:        w.ref.Worker,
			Tags:          slices.Clone(w.tags),
			Assignments:   len(w.assignments),
			ExpiresAtUnix: w.expires.Unix(),
		})
	}
	s.reg.mu.Unlock()
	for i := range out {
		ref := core.WorkerRef{Site: out[i].Site, Worker: out[i].Worker}
		if ctx, ok := s.tel.WorkerContext(ref); ok {
			out[i].MeanTaskMillis = ctx.MeanTaskMillis
			out[i].FailureRate = ctx.FailureRate
			out[i].Samples = ctx.Samples
			out[i].Events = ctx.Events
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Site != out[k].Site {
			return out[i].Site < out[k].Site
		}
		return out[i].Worker < out[k].Worker
	})
	return out
}

// Health summarizes liveness for /healthz. Jobs still running are counted
// from the job table — replicated state, so a standby reports its leader's
// figure; workers are liveness, and a standby has none.
func (s *Service) Health() api.Health {
	h := api.Health{Status: "ok"}
	s.mu.Lock()
	h.Jobs = len(s.jobs)
	for _, j := range s.jobs {
		if j.state == api.JobRunning {
			h.OpenJobs++
		}
	}
	s.mu.Unlock()
	s.reg.mu.Lock()
	h.Workers = len(s.reg.workers)
	s.reg.mu.Unlock()
	return h
}
