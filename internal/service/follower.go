package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/metrics"
	"gridsched/internal/replicate"
	"gridsched/internal/service/api"
)

// Follower is a hot standby: it streams the leader's WAL
// (internal/replicate) into a replica — a Service state opened over its own
// data dir by the code that opens a leader (open), minus the scheduler
// factory, so its jobs are shells (jobstate.go) whose counters and states
// move exactly as the leader's did at no scheduler cost. The replica
// journals each frame through its own journal writer, applies it, checkpoints
// itself with the leader's snapshot, and serves the leader's route table
// (http.go); the Follower itself keeps only the stream. Promote ends it and
// runs the full recovery path (New) over the replicated data dir — the code
// path the kill -9 gauntlet proves bit-exact — returning a leader Service.
type Follower struct {
	svcCfg Config // normalized; used verbatim at promotion
	cfg    FollowerConfig

	repl *metrics.ReplicationCounters

	// st is the replica; a catch-up snapshot replaces it whole.
	st atomic.Pointer[Service]
	// mu guards halted, and is held across one frame's append and apply and
	// by LastLSN, so a position read never names a record the replica does
	// not show yet. Readers of the replica take its own locks, never this.
	mu     sync.Mutex
	halted error // terminal stream divergence; nil while healthy

	leaderLSN   atomic.Uint64
	lastContact atomic.Int64 // unix nanos of the last leader contact
	promoting   atomic.Bool
	promoted    atomic.Bool

	// ctx is the stream's lifetime: cancel stops run, done says it has.
	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	closeOnce sync.Once
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
}

// reconnectMax caps the backoff between stream reconnect attempts.
var reconnectMax = 2 * time.Second

// streamClient performs the stream request: no client-level timeout, the
// stream is long-lived.
var streamClient = &http.Client{}

// NewFollower opens (or resumes) the replicated data dir under cfg.DataDir
// and starts streaming from the leader. The local state is opened the way a
// leader's is — checkpoint, then the journal tail record by record, workload
// files read in full — so a data dir promotion would refuse is refused
// here, while the leader is still alive.
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
	f := &Follower{
		svcCfg: cfg,
		cfg:    fcfg,
		repl:   &metrics.ReplicationCounters{},
		done:   make(chan struct{}),
	}
	st := f.newReplica()
	if _, err := st.open(); err != nil {
		return nil, err
	}
	f.st.Store(st)
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.touchContact()
	go f.run()
	return f, nil
}

// newReplica builds an empty replica state: the service's configuration
// minus the scheduler factory, so every job in it stays a shell. A
// catch-up's replica carries on the counters of the one it replaces.
func (f *Follower) newReplica() *Service {
	cfg := f.svcCfg
	cfg.NewScheduler = nil
	st := newState(cfg)
	st.standby, st.repl = f, f.repl
	if prev := f.st.Load(); prev != nil {
		st.jmet = prev.jmet
	}
	return st
}

func (f *Follower) touchContact() { f.lastContact.Store(time.Now().UnixNano()) }

// run is the reconnect loop: one replicate.Follow per connection, capped
// jittered-ish backoff between attempts, permanent halt on divergence.
func (f *Follower) run() {
	defer close(f.done)
	backoff := time.Duration(0)
	for {
		err := replicate.Follow(f.ctx, streamClient, f.cfg.Leader, f.cfg.Token, f.LastLSN(), f)
		if f.ctx.Err() != nil {
			return
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
		backoff = min(max(2*backoff, 100*time.Millisecond), reconnectMax)
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(backoff):
		}
	}
}

// errFollowerWAL wraps local journal failures — terminal for the stream,
// since a poisoned writer can never apply another frame.
var errFollowerWAL = errors.New("service: follower journal failed")

// ApplyFrame decodes one streamed record, appends it to the replica's
// journal and applies it; a checkpoint follows when one is due.
// replicate.Replay has already proven lsn is exactly last+1. A record this
// binary cannot decode — an older leader's — is refused before it reaches
// the data dir.
func (f *Follower) ApplyFrame(lsn uint64, payload []byte) error {
	rec, err := decodeRecord(payload)
	if err != nil {
		return fmt.Errorf("%w: undecodable record at lsn %d: %v", replicate.ErrDiverged, lsn, err)
	}
	st := f.st.Load()
	f.mu.Lock()
	got, err := st.appendEncoded(payload)
	switch {
	case err != nil:
		err = fmt.Errorf("%w: %v", errFollowerWAL, err)
	case got != lsn:
		// The writer's LSN sequence is seeded from the replicated log, so
		// this can only mean local and leader histories disagree.
		err = fmt.Errorf("%w: local writer assigned lsn %d, stream says %d", replicate.ErrDiverged, got, lsn)
	default:
		if err = st.applyRecord(&rec); err != nil {
			// The bytes are already durable and identical to the leader's;
			// recovery at promotion would fail on them exactly as the leader
			// would. Surface it now instead of serving a stale replica.
			err = fmt.Errorf("%w: unreplayable record at lsn %d: %v", replicate.ErrDiverged, lsn, err)
		}
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	st.snapshotIfDue()
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
// rotation), workload files the new manifest does not list are removed,
// and a replica loaded from the document takes the old one's place.
func (f *Follower) ApplySnapshot(lsn uint64, data []byte) error {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("%w: undecodable snapshot: %v", replicate.ErrDiverged, err)
	}
	if snap.LastLSN != lsn {
		return fmt.Errorf("%w: snapshot body covers lsn %d, its frame says %d", replicate.ErrDiverged, snap.LastLSN, lsn)
	}
	// Restore before writeCheckpoint drops the inline workloads (a running
	// job without one is refused: the message is self-contained, no workload
	// file is consulted); a document recovery could not load, or another
	// partition's, is refused with nothing on disk touched.
	st := f.newReplica()
	if _, err := st.restore(snap, ""); err != nil {
		return fmt.Errorf("%w: unloadable snapshot: %v", replicate.ErrDiverged, err)
	}
	st.pst.stored = make(map[string]struct{})
	if _, err := writeCheckpoint(st.pst.dir, snap, st.pst.stored); err != nil {
		return fmt.Errorf("%w: %v", errFollowerWAL, err)
	}
	if err := f.st.Load().pst.w.Close(); err != nil {
		log.Printf("gridschedd: follower journal close before snapshot reset: %v", err)
	}
	// The LSN sequence continues from the snapshot position.
	if err := st.openJournal(lsn, 0); err != nil {
		return fmt.Errorf("%w: %v", errFollowerWAL, err)
	}
	if err := sweepDataDir(st.pst.dir, st.pst.stored); err != nil {
		log.Printf("gridschedd: follower data dir sweep after snapshot: %v", err)
	}
	f.st.Store(st)
	f.repl.SnapshotsApplied.Add(1)
	f.touchContact()
	return nil
}

// Heartbeat records the leader's position (lag = leader - local).
func (f *Follower) Heartbeat(lastLSN uint64) {
	f.leaderLSN.Store(lastLSN)
	f.touchContact()
}

// LastLSN is the last LSN the follower holds locally, applied.
func (f *Follower) LastLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st.Load().ReplicationLastLSN()
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
	// Everything acked to the leader's stream is in the page cache already;
	// a failed final fsync only narrows machine-crash durability, it does
	// not block promotion.
	f.Close()
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

// Close stops the stream and closes the local journal, once: a promoted
// Service's journal is safe from a late call.
func (f *Follower) Close() {
	f.closeOnce.Do(func() {
		f.cancel()
		<-f.done
		if err := f.st.Load().pst.w.Close(); err != nil {
			log.Printf("gridschedd: follower journal close: %v", err)
		}
	})
}

// Handler is the follower's HTTP surface: the service's one route table
// over the current replica (http.go) — read routes rendered by the leader's
// own handlers, liveness-only fields (in-flight leases, share windows,
// throttles, workers) zero; a 421 + leader redirect for every other route
// and for anything the table does not know. Mount it behind the same
// ingress chain as a leader.
func (f *Follower) Handler() http.Handler {
	mux := serveRoutes(f.st.Load)
	mux.HandleFunc("/", f.redirectToLeader)
	return mux
}

// redirectToLeader answers a request only the leader can serve with 421
// Misdirected Request plus the leader's base URL — the hint the Go
// client's endpoint failover follows.
func (f *Follower) redirectToLeader(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(api.LeaderHeader, f.cfg.Leader)
	api.WriteJSON(w, http.StatusMisdirectedRequest, api.ErrorResponse{
		Error: fmt.Sprintf("follower: %s %s must go to the leader at %s", r.Method, r.URL.Path, f.cfg.Leader),
	})
}
