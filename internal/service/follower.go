package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/replicate"
	"gridsched/internal/service/api"
)

// Follower is a hot standby: it streams the leader's WAL
// (internal/replicate), persists every frame through its own
// journal.Writer, and applies it to a replica of the leader's state — the
// same restore and applyRecord recovery runs, over job shells with no
// scheduler attached (jobstate.go), so the standby's counters and states
// move exactly as the leader's did and cost no scheduler work. It serves
// status endpoints from the replica and rejects mutations with a leader
// redirect; Promote ends the stream and runs the full recovery path (New)
// over the replicated data dir — the same code path the kill -9 gauntlet
// proves bit-exact — returning a live leader Service.
type Follower struct {
	svcCfg Config // normalized; used verbatim at promotion
	cfg    FollowerConfig

	repl *metrics.ReplicationCounters
	jmet *journal.Metrics

	mu sync.Mutex
	w  *journal.Writer
	// st is the replica: a never-started Service state (newState) whose
	// jobs are shells. mu serializes applies against reads.
	st     *Service
	last   uint64 // last LSN applied locally
	halted error  // terminal stream divergence; nil while healthy

	leaderLSN   atomic.Uint64
	lastContact atomic.Int64 // unix nanos of the last leader contact
	promoting   atomic.Bool
	promoted    atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// FollowerConfig parameterizes the replication client side of a Follower;
// the service side (data dir, fsync mode, topology — everything promotion
// needs) comes from the Config passed alongside it.
type FollowerConfig struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// Token, when non-empty, is the bearer token presented on the stream
	// request; it must resolve to an admin principal on the leader.
	Token string
	// HTTPClient performs the stream request. It must have NO client-level
	// timeout (the stream is long-lived). Nil picks a default.
	HTTPClient *http.Client
	// ReconnectMax caps the backoff between stream reconnect attempts.
	// 0 picks 2s.
	ReconnectMax time.Duration
}

// NewFollower opens (or resumes) the replicated data dir under cfg.DataDir
// and starts streaming from the leader. The local state is loaded the way
// recovery would — checkpoint, then the journal tail record by record —
// minus the schedulers.
func NewFollower(cfg Config, fcfg FollowerConfig) (*Follower, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: follower requires DataDir (it exists to replicate a journal)")
	}
	if fcfg.Leader == "" {
		return nil, fmt.Errorf("service: follower requires a leader URL")
	}
	if fcfg.HTTPClient == nil {
		fcfg.HTTPClient = &http.Client{}
	}
	if fcfg.ReconnectMax <= 0 {
		fcfg.ReconnectMax = 2 * time.Second
	}
	f := &Follower{
		svcCfg: cfg,
		cfg:    fcfg,
		repl:   &metrics.ReplicationCounters{},
		jmet:   &journal.Metrics{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if err := f.openLocal(); err != nil {
		return nil, err
	}
	f.touchContact()
	go f.run()
	return f, nil
}

func (f *Follower) walPath() string { return filepath.Join(f.svcCfg.DataDir, walFile) }

// openLocal loads whatever replicated state already exists on disk:
// checkpoint into the replica, journal tail applied on top, writer opened
// at the validated prefix — a restartable follower, not a from-scratch
// one. The checkpoint is read in full, workload files included (restore
// decodes each running job's), exactly as the recovery that promotion runs
// will read it: a data dir promotion would refuse is refused here, while
// the leader is still alive.
func (f *Follower) openLocal() error {
	dir := f.svcCfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap, err := readManifest(dir)
	if err != nil {
		return err
	}
	// A crash inside ApplySnapshot strands what a crash inside a leader's
	// checkpoint does.
	if err := sweepDataDir(dir, snap.storedJobs()); err != nil {
		return err
	}
	st := f.newReplica()
	after := uint64(0)
	if snap != nil {
		if _, err := st.restore(snap, dir); err != nil {
			return err
		}
		after = snap.LastLSN
	}
	info, err := journal.ReadLog(f.walPath(), after, st.applyFrame)
	if err != nil {
		return err
	}
	last := max(after, info.LastLSN)
	w, err := journal.OpenWriter(f.walPath(), f.svcCfg.Fsync, f.svcCfg.FsyncInterval, last, info.ValidSize, f.jmet)
	if err != nil {
		return err
	}
	f.w, f.st, f.last = w, st, last
	return nil
}

// newReplica builds an empty replica state: the service's configuration
// minus the scheduler factory, so every job in it stays a shell.
func (f *Follower) newReplica() *Service {
	cfg := f.svcCfg
	cfg.NewScheduler = nil
	return newState(cfg)
}

func (f *Follower) touchContact() { f.lastContact.Store(time.Now().UnixNano()) }

// run is the reconnect loop: one replicate.Follow per connection, capped
// jittered-ish backoff between attempts, permanent halt on divergence.
func (f *Follower) run() {
	defer close(f.done)
	backoff := time.Duration(0)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-f.stop:
				cancel()
			case <-ctx.Done():
			}
		}()
		err := replicate.Follow(ctx, f.cfg.HTTPClient, f.cfg.Leader, f.cfg.Token, f.LastLSN(), f)
		cancel()
		select {
		case <-f.stop:
			return
		default:
		}
		if errors.Is(err, replicate.ErrDiverged) || errors.Is(err, errFollowerWAL) {
			// Halt rather than diverge: applying past a gap, a rewinding
			// snapshot, or a poisoned local journal could only produce a
			// log that disagrees with the leader's. The follower keeps
			// serving its (valid-prefix) replica; an operator restarts it
			// to re-sync, or promotes it if the leader is gone.
			f.mu.Lock()
			f.halted = err
			f.mu.Unlock()
			f.repl.Halted.Store(1)
			log.Printf("gridschedd: follower halted: %v", err)
			return
		}
		f.repl.Reconnects.Add(1)
		if backoff < 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		} else {
			backoff *= 2
		}
		if backoff > f.cfg.ReconnectMax {
			backoff = f.cfg.ReconnectMax
		}
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
	}
}

// errFollowerWAL wraps local journal failures — terminal for the stream,
// since a poisoned writer can never apply another frame.
var errFollowerWAL = errors.New("service: follower journal failed")

// ApplyFrame persists one streamed record and applies it to the replica.
// replicate.Replay has already proven lsn is exactly last+1.
func (f *Follower) ApplyFrame(lsn uint64, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.w == nil {
		return fmt.Errorf("service: follower is promoting")
	}
	got, err := f.w.Append(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", errFollowerWAL, err)
	}
	if got != lsn {
		// The writer's LSN sequence is seeded from the replicated log, so
		// this can only mean local and leader histories disagree.
		return fmt.Errorf("%w: local writer assigned lsn %d, stream says %d", replicate.ErrDiverged, got, lsn)
	}
	if err := f.st.applyFrame(lsn, payload); err != nil {
		// The bytes are already durable and identical to the leader's;
		// recovery at promotion would fail on them exactly as the leader
		// would. Surface it now instead of serving a stale replica.
		return fmt.Errorf("%w: unreplayable record at lsn %d: %v", replicate.ErrDiverged, lsn, err)
	}
	f.last = lsn
	f.repl.FramesApplied.Add(1)
	if lsn > f.leaderLSN.Load() {
		f.leaderLSN.Store(lsn)
	}
	f.touchContact()
	return nil
}

// ApplySnapshot installs a full catch-up snapshot: the self-contained
// document is split into the checkpoint files a leader keeps (every
// workload rewritten from the message, then the manifest, the order a
// leader's checkpoint uses), the local WAL resets to an empty log seeded
// at the snapshot's LSN (exactly the state a leader has right after
// rotation), the replica is rebuilt, and workload files the new manifest
// does not list are removed.
func (f *Follower) ApplySnapshot(lsn uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.w == nil {
		return fmt.Errorf("service: follower is promoting")
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("%w: undecodable snapshot: %v", replicate.ErrDiverged, err)
	}
	if snap.LastLSN != lsn {
		return fmt.Errorf("%w: snapshot body covers lsn %d, header says %d", replicate.ErrDiverged, snap.LastLSN, lsn)
	}
	// Restore before writeCheckpoint drops the inline workloads (a running
	// job without one is refused — the message is self-contained, so no
	// workload file is consulted); a document recovery could not load is
	// refused with nothing on disk touched.
	st := f.newReplica()
	if _, err := st.restore(snap, ""); err != nil {
		return fmt.Errorf("%w: unloadable snapshot: %v", replicate.ErrDiverged, err)
	}
	dir := f.svcCfg.DataDir
	stored := make(map[string]struct{})
	if _, err := writeCheckpoint(dir, snap, stored); err != nil {
		return fmt.Errorf("%w: %v", errFollowerWAL, err)
	}
	if err := f.w.Close(); err != nil {
		log.Printf("gridschedd: follower journal close before snapshot reset: %v", err)
	}
	// validSize 0 resets the file to a fresh empty log; the LSN sequence
	// continues from the snapshot position.
	w, err := journal.OpenWriter(f.walPath(), f.svcCfg.Fsync, f.svcCfg.FsyncInterval, lsn, 0, f.jmet)
	if err != nil {
		return fmt.Errorf("%w: %v", errFollowerWAL, err)
	}
	f.w = w
	if err := sweepDataDir(dir, stored); err != nil {
		log.Printf("gridschedd: follower data dir sweep after snapshot: %v", err)
	}
	f.st = st
	f.last = lsn
	f.repl.SnapshotsApplied.Add(1)
	f.touchContact()
	return nil
}

// Heartbeat records the leader's position (lag = leader - local).
func (f *Follower) Heartbeat(lastLSN uint64) {
	f.leaderLSN.Store(lastLSN)
	f.touchContact()
}

// LastLSN is the last LSN the follower holds locally.
func (f *Follower) LastLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// LeaderLSN is the leader's last announced LSN.
func (f *Follower) LeaderLSN() uint64 { return f.leaderLSN.Load() }

// LastContact is when the follower last heard from the leader (frame,
// snapshot, or heartbeat) — the signal automatic promotion keys on.
func (f *Follower) LastContact() time.Time {
	return time.Unix(0, f.lastContact.Load())
}

// Halted reports the terminal divergence error, nil while healthy.
func (f *Follower) Halted() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.halted
}

// Promote flips the follower live: the stream stops, the local journal is
// synced and closed, and the full recovery path (New) rebuilds a leader
// Service over the replicated data dir — schedulers, fair-share tags, RNG
// state and all, exactly as the recovery-identity tests prove. The call
// is synchronous: when it returns, the Service answers traffic. A second
// call fails with 409.
func (f *Follower) Promote() (*Service, error) {
	if !f.promoting.CompareAndSwap(false, true) {
		return nil, errf(http.StatusConflict, "service: promotion already requested")
	}
	f.shutdownStream()
	f.mu.Lock()
	w := f.w
	f.w = nil
	f.mu.Unlock()
	if w != nil {
		if err := w.Close(); err != nil {
			// Everything acked to the leader's stream is in the page
			// cache already; a failed final fsync only narrows
			// machine-crash durability, it does not block promotion.
			log.Printf("gridschedd: follower journal close at promotion: %v", err)
		}
	}
	svc, err := New(f.svcCfg)
	if err != nil {
		f.mu.Lock()
		f.halted = fmt.Errorf("service: promotion failed: %w", err)
		f.mu.Unlock()
		return nil, errf(http.StatusInternalServerError, "service: promotion failed: %v", err)
	}
	f.promoted.Store(true)
	return svc, nil
}

// Promoted reports whether Promote succeeded.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

func (f *Follower) shutdownStream() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Close stops the stream and closes the local journal. Idempotent; a
// promoted follower's journal belongs to the promoted Service and is not
// touched.
func (f *Follower) Close() {
	f.shutdownStream()
	f.mu.Lock()
	w := f.w
	f.w = nil
	f.mu.Unlock()
	if w != nil {
		_ = w.Close()
	}
}

// position is the standby's place in the log as /readyz and /metrics
// report it: the last LSN it holds, the last its leader announced, and the
// lag between them, clamped at 0 (the follower can briefly know more than
// the last heartbeat announced).
func (f *Follower) position() (local, leader, lag uint64) {
	local, leader = f.LastLSN(), f.LeaderLSN()
	return local, leader, leader - min(local, leader)
}

// Handler is the follower's HTTP surface: read-only status from the
// replica — rendered by the leader's own read paths; liveness-only fields
// (in-flight leases, share windows, throttles, workers) are zero here —
// truthful probes, and a 421 + leader-redirect for everything mutating.
// Mount it behind the same ingress chain as a leader.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		jobs := f.st.Jobs()
		f.mu.Unlock()
		if jobs == nil {
			jobs = []api.JobStatus{} // a standby has always listed nothing as []
		}
		writeJSON(w, http.StatusOK, jobs)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		st, err := f.st.JobStatus(r.PathValue("id"))
		f.mu.Unlock()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		tenants := f.st.Tenants()
		f.mu.Unlock()
		writeJSON(w, http.StatusOK, tenants)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// No worker registers with a standby, and nothing maintains the
		// live service's gauges here: count the shells.
		h := api.Health{Status: "ok"}
		f.mu.Lock()
		for _, sh := range f.st.shards {
			for _, j := range sh.jobs {
				h.Jobs++
				if j.state == api.JobRunning {
					h.OpenJobs++
				}
			}
		}
		f.mu.Unlock()
		writeJSON(w, http.StatusOK, h)
	})
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("/", f.redirectToLeader)
	return mux
}

func (f *Follower) handleReadyz(w http.ResponseWriter, r *http.Request) {
	local, leader, lag := f.position()
	rd := api.Readiness{
		Status:    "ready",
		Role:      api.RoleFollower,
		LastLSN:   local,
		LeaderLSN: leader,
		LagLSN:    lag,
		Leader:    f.cfg.Leader,
	}
	w.Header().Set(api.LeaderHeader, f.cfg.Leader)
	writeJSON(w, http.StatusOK, rd)
}

// redirectToLeader answers every mutating (or unknown) request with 421
// Misdirected Request plus the leader's base URL — the hint the Go
// client's endpoint failover follows.
func (f *Follower) redirectToLeader(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(api.LeaderHeader, f.cfg.Leader)
	writeJSON(w, http.StatusMisdirectedRequest, api.ErrorResponse{
		Error: fmt.Sprintf("follower: %s %s must go to the leader at %s", r.Method, r.URL.Path, f.cfg.Leader),
	})
}

// ReplicationCounters exposes the follower's metrics for embedding.
func (f *Follower) ReplicationCounters() *metrics.ReplicationCounters { return f.repl }
