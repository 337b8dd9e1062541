package service

import (
	"errors"
	"io/fs"
	"net/http"
	"strconv"
	"time"

	"gridsched/internal/middleware"
	"gridsched/internal/replicate"
	"gridsched/internal/service/api"
)

// Leader side of WAL replication: GET /v1/replication/stream hands the
// connection to a replicate.Source that streams the frames the live
// journal writer holds.
// The endpoint is admin-gated by the ingress chain (its auth layer
// treats /v1/replication/ as an admin surface) and requires -data-dir —
// an in-memory service has no log to stream.

// ReplicationLastLSN reports the last journal LSN this service holds
// (0 without journaling) — the leader's position for readiness and lag.
func (s *Service) ReplicationLastLSN() uint64 {
	if s.pst == nil {
		return 0
	}
	return s.pst.w.LastLSN()
}

func (s *Service) handleReplicationStream(w http.ResponseWriter, r *http.Request) {
	if s.pst == nil {
		writeError(w, errf(http.StatusNotImplemented,
			"service: replication requires -data-dir (no journal to stream)"))
		return
	}
	from := uint64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, errf(http.StatusBadRequest, "service: bad from=%q: %v", q, err))
			return
		}
		from = v
	}
	if _, ok := w.(http.Flusher); !ok {
		writeError(w, errf(http.StatusInternalServerError, "service: transport cannot stream"))
		return
	}
	src := &replicate.Source{
		Log:      s.pst.w,
		Snapshot: s.catchUpSnapshot,
		Done:     s.sweepStop, // closed by Close/CrashForTest
		OnFrames: func(n int) { s.repl.FramesStreamed.Add(int64(n)) },
	}
	w.Header().Set("Content-Type", "application/x-gridsched-replication")
	w.WriteHeader(http.StatusOK)
	s.repl.StreamsActive.Add(1)
	start := time.Now()
	_ = src.Serve(r.Context(), w, from)
	s.repl.StreamsActive.Add(-1)
	// The stream's lifetime is deliberate parking, not request latency;
	// without this a single follower connection would blow through any
	// load-shedding p99 bound (same reasoning as long-poll pulls).
	middleware.ObserveParked(r.Context(), time.Since(start))
}

// catchUpSnapshot is the replication source's view of the checkpoint: the
// self-contained document when it covers journal position next, nil when
// it does not. It reads the data dir like recovery would, under no service
// lock, so a checkpoint can retire a workload file between the manifest
// read and the file read; the manifest that did so is already in place,
// and reading again resolves against it. Checkpoints are hundreds of
// milliseconds apart, so a file still missing on the third read is gone
// for good and the error stands.
func (s *Service) catchUpSnapshot(next uint64) (lsn uint64, doc []byte, err error) {
	for range 3 {
		lsn, doc, err = checkpointDocument(s.pst.dir, next)
		if !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	return lsn, doc, err
}

// readiness assembles the /readyz body of either role. A standby's is its
// place in the log: the last LSN it holds, the last its leader announced,
// and the lag between them, clamped at 0 (the standby can briefly know more
// than the last heartbeat announced).
func (s *Service) readiness() api.Readiness {
	if f := s.standby; f != nil {
		local, leader := f.LastLSN(), f.LeaderLSN()
		return api.Readiness{
			Status:    "ready",
			Role:      api.RoleFollower,
			LastLSN:   local,
			LeaderLSN: leader,
			LagLSN:    leader - min(local, leader),
			Leader:    f.cfg.Leader,
		}
	}
	return api.Readiness{
		Status:  "ready",
		Role:    api.RoleLeader,
		LastLSN: s.ReplicationLastLSN(),
	}
}
