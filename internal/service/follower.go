package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
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
// journal.Writer, and keeps a read-only catalog of job and tenant state
// folded from the very records recovery would replay. It serves status
// endpoints and rejects mutations with a leader redirect; Promote ends
// the stream and runs the full recovery path (New) over the replicated
// data dir — the same code path the kill -9 gauntlet proves bit-exact —
// returning a live leader Service.
type Follower struct {
	svcCfg Config // normalized; used verbatim at promotion
	cfg    FollowerConfig

	repl *metrics.ReplicationCounters
	jmet *journal.Metrics

	mu     sync.Mutex
	w      *journal.Writer
	cat    *catalog
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
// and starts streaming from the leader. The local state is validated the
// same way recovery would — snapshot load plus journal tail scan — but
// folded into a read-only catalog instead of live schedulers.
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
// checkpoint into the catalog, journal tail folded on top, writer opened
// at the validated prefix — a restartable follower, not a from-scratch
// one. The checkpoint is read in full, workload files included, exactly
// as the recovery that promotion runs will read it: a data dir promotion
// would refuse is refused here, while the leader is still alive.
func (f *Follower) openLocal() error {
	dir := f.svcCfg.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap, stored, err := readCheckpoint(dir)
	if err != nil {
		return err
	}
	// A crash inside ApplySnapshot strands what a crash inside a leader's
	// checkpoint does.
	if err := sweepDataDir(dir, stored); err != nil {
		return err
	}
	cat := newCatalog(f.svcCfg.DefaultWeight, f.svcCfg.TenantMaxInFlight)
	after := uint64(0)
	if snap != nil {
		cat.loadSnapshot(snap)
		after = snap.LastLSN
	}
	info, err := journal.ReadLog(f.walPath(), after, func(lsn uint64, payload []byte) error {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("service: journal record %d: %w", lsn, err)
		}
		cat.applyRecord(&rec)
		return nil
	})
	if err != nil {
		return err
	}
	last := max(after, info.LastLSN)
	w, err := journal.OpenWriter(f.walPath(), f.svcCfg.Fsync, f.svcCfg.FsyncInterval, last, info.ValidSize, f.jmet)
	if err != nil {
		return err
	}
	f.w, f.cat, f.last = w, cat, last
	f.repl.LocalLSN.Store(int64(last))
	return nil
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
			// serving its (valid-prefix) catalog; an operator restarts it
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

// ApplyFrame persists one streamed record and folds it into the catalog.
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
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		// The bytes are already durable and identical to the leader's;
		// recovery at promotion would fail on them exactly as the leader
		// would. Surface it now instead of serving a stale catalog.
		return fmt.Errorf("%w: undecodable record at lsn %d: %v", replicate.ErrDiverged, lsn, err)
	}
	f.cat.applyRecord(&rec)
	f.last = lsn
	f.repl.FramesApplied.Add(1)
	f.repl.LocalLSN.Store(int64(lsn))
	if l := f.leaderLSN.Load(); lsn > l {
		f.leaderLSN.Store(lsn)
		f.repl.LeaderLSN.Store(int64(lsn))
	}
	f.touchContact()
	return nil
}

// ApplySnapshot installs a full catch-up snapshot: the self-contained
// document is split into the checkpoint files a leader keeps (every
// workload rewritten from the message, then the manifest, the order a
// leader's checkpoint uses), the local WAL resets to an empty log seeded
// at the snapshot's LSN (exactly the state a leader has right after
// rotation), the catalog is rebuilt, and workload files the new manifest
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
	for i := range snap.Jobs {
		if sj := &snap.Jobs[i]; sj.State == api.JobRunning && sj.Workload == nil {
			return fmt.Errorf("%w: snapshot job %s running but has no workload", replicate.ErrDiverged, sj.ID)
		}
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
	cat := newCatalog(f.svcCfg.DefaultWeight, f.svcCfg.TenantMaxInFlight)
	cat.loadSnapshot(snap)
	f.cat = cat
	f.last = lsn
	f.repl.SnapshotsApplied.Add(1)
	f.repl.LocalLSN.Store(int64(lsn))
	f.touchContact()
	return nil
}

// Heartbeat records the leader's position (lag = leader - local).
func (f *Follower) Heartbeat(lastLSN uint64) {
	f.leaderLSN.Store(lastLSN)
	f.repl.LeaderLSN.Store(int64(lastLSN))
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

// lag is LeaderLSN - LastLSN, clamped at 0 (the follower can briefly know
// more than the last heartbeat announced).
func (f *Follower) lag() uint64 {
	local, leader := f.LastLSN(), f.LeaderLSN()
	if leader <= local {
		return 0
	}
	return leader - local
}

// Handler is the follower's HTTP surface: read-only status from the
// catalog, truthful probes, and a 421 + leader-redirect for everything
// mutating. Mount it behind the same ingress chain as a leader.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.snapshotJobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := f.snapshotJob(r.PathValue("id"))
		if !ok {
			writeError(w, errf(http.StatusNotFound, "service: unknown job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, f.snapshotTenants())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		jobs := len(f.cat.jobs)
		f.mu.Unlock()
		writeJSON(w, http.StatusOK, api.Health{Status: "ok", Jobs: jobs})
	})
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("/", f.redirectToLeader)
	return mux
}

func (f *Follower) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := api.Readiness{
		Status:    "ready",
		Role:      api.RoleFollower,
		LastLSN:   f.LastLSN(),
		LeaderLSN: f.LeaderLSN(),
		LagLSN:    f.lag(),
		Leader:    f.cfg.Leader,
	}
	w.Header().Set(api.LeaderHeader, f.cfg.Leader)
	writeJSON(w, http.StatusOK, rd)
}

func (f *Follower) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = metrics.WriteReplicationText(w, api.RoleFollower, f.repl)
	fmt.Fprintf(w, "# TYPE gridsched_journal_records_total counter\ngridsched_journal_records_total %d\n",
		f.jmet.Records.Load())
	fmt.Fprintf(w, "# TYPE gridsched_journal_bytes_total counter\ngridsched_journal_bytes_total %d\n",
		f.jmet.Bytes.Load())
	fmt.Fprintf(w, "# TYPE gridsched_journal_fsyncs_total counter\ngridsched_journal_fsyncs_total %d\n",
		f.jmet.Fsyncs.Load())
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

func (f *Follower) snapshotJobs() []api.JobStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cat.jobStatuses()
}

func (f *Follower) snapshotJob(id string) (api.JobStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.cat.jobs[id]
	if !ok {
		return api.JobStatus{}, false
	}
	return j.status(), true
}

func (f *Follower) snapshotTenants() []api.TenantStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cat.tenantStatuses()
}

// ReplicationCounters exposes the follower's metrics for embedding.
func (f *Follower) ReplicationCounters() *metrics.ReplicationCounters { return f.repl }

// sortJobStatuses orders by numeric job id — the same submission order
// the leader's Jobs() uses.
func sortJobStatuses(sts []api.JobStatus) {
	sort.Slice(sts, func(i, k int) bool { return idNum(sts[i].ID) < idNum(sts[k].ID) })
}
