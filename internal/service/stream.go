// The streaming lease channel: GET /v1/workers/{id}/stream holds one
// chunked HTTP response open per worker and pushes LeaseBatch frames down
// it as the arbiter grants leases — the wire-speed replacement for
// per-task long-poll pulls. One request amortizes across the worker's
// whole tenure: grants arrive in batches of up to k (the ?batch
// parameter), lease renewal rides the stream itself instead of
// per-assignment heartbeats, and cancellation notices piggyback on the
// same frames. Reports flow back on the companion batch endpoint
// (POST /v1/workers/{id}/reports → Service.ReportBatch).
//
// The stream is the liveness signal: while it is open the loop renews the
// worker's registration and every held lease each TTL/3; when it drops,
// renewal stops and the ordinary sweep expires and requeues whatever the
// worker held — exactly the long-poll crash story, so exactly-once
// accounting needs no new mechanism.
package service

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"time"

	"gridsched/internal/middleware"
	"gridsched/internal/service/api"
)

const (
	// defaultStreamBatch is the pipeline depth when ?batch is absent.
	defaultStreamBatch = 16
	// maxStreamBatch caps the per-worker pipeline a client may request:
	// deep enough to hide any realistic network round trip, shallow
	// enough that one slow worker cannot hoard a job's tail of tasks.
	maxStreamBatch = 256
)

func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	batch := defaultStreamBatch
	if q := r.URL.Query().Get("batch"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, errf(http.StatusBadRequest, "service: bad batch %q", q))
			return
		}
		batch = min(v, maxStreamBatch)
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(http.StatusInternalServerError, "service: transport cannot stream"))
		return
	}
	codec, ct := api.JSON, api.ContentTypeStreamJSON
	if api.AcceptsBinary(r.Header.Get("Accept")) {
		codec, ct = api.Binary, api.ContentTypeStreamBinary
	}
	wk, err := s.claimStream(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer s.releaseStream(wk)
	// Commit the response before the first grant so the client unblocks
	// (and learns the negotiated codec) immediately.
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	// The stream's whole lifetime is a park, exactly like a long poll's
	// wait: report it to the ingress shedder so an open (mostly idle)
	// stream is never mistaken for a slow request.
	start := time.Now()
	s.streamLeases(r.Context(), w, flusher, wk, batch, codec)
	middleware.ObserveParked(r.Context(), time.Since(start))
}

// claimStream validates the worker and marks it streaming. At most one
// stream per worker, never concurrent with a classic pull — the two
// protocols disagree about how many leases a worker may hold.
//
// A new stream always starts with an empty pipeline: anything the worker
// still held is expired and requeued on the spot, exactly as Deregister
// would. This is load-bearing for liveness, not hygiene. Assignments
// granted on a previous stream but severed mid-frame were never received
// by the client, and grants are pushed only once — yet the new stream
// would renew those held leases every TTL/3, so they could neither expire
// nor be re-delivered and the pipeline capacity they occupy would be lost
// for the stream's whole lifetime. The client mirrors this: on a drop it
// abandons everything undelivered-to-execution and re-reports finished
// work, which lands stale against the requeue — never double-counted.
func (s *Service) claimStream(workerID string) (*worker, error) {
	if s.closed.Load() {
		return nil, errf(http.StatusServiceUnavailable, "service: closed")
	}
	now := s.now()
	s.maybeSweep(now)
	r := s.reg
	r.mu.Lock()
	w := r.workers[workerID]
	if w == nil {
		r.mu.Unlock()
		return nil, errf(http.StatusNotFound, "service: unknown worker %q (lease expired? re-register)", workerID)
	}
	if w.streaming {
		r.mu.Unlock()
		return nil, errf(http.StatusConflict, "service: worker %q already has a lease stream open", workerID)
	}
	if w.pulling {
		r.mu.Unlock()
		return nil, errf(http.StatusConflict, "service: worker %q has a pull in flight", workerID)
	}
	w.streaming = true
	if w.wake == nil {
		w.wake = make(chan struct{}, 1)
	}
	w.expires = now.Add(s.cfg.LeaseTTL)
	orphans := make([]*assignment, 0, len(w.assignments))
	for _, a := range w.assignments {
		orphans = append(orphans, a)
	}
	r.mu.Unlock()
	for _, a := range orphans {
		// A concurrent report (the client retrying its pending batch) may
		// have already ended the lease; only what is still live expires.
		s.expireLease(a, now)
	}
	if len(orphans) > 0 {
		s.hub.broadcast()
		s.snapshotIfDue()
	}
	return w, nil
}

func (s *Service) releaseStream(wk *worker) {
	s.reg.mu.Lock()
	if s.reg.workers[wk.id] == wk {
		wk.streaming = false
	}
	s.reg.mu.Unlock()
}

// streamLeases is the per-stream loop: grant up to the worker's free
// pipeline capacity, frame and flush, park until something changes. Locks
// follow the pull path exactly — registry and shards are taken one at a
// time, the hub subscription happens BEFORE the grant scan so no wakeup
// is lost, and the durability wait runs outside every lock.
func (s *Service) streamLeases(ctx context.Context, w io.Writer, flusher http.Flusher, wk *worker, batch int, codec api.Codec) {
	var buf []byte
	lastOpen := -1
	renewEvery := s.cfg.LeaseTTL / 3
	if renewEvery <= 0 {
		renewEvery = time.Second
	}
	lastRenew := s.now()
	done := ctx.Done()
	for {
		if s.closed.Load() {
			return
		}
		now := s.now()
		s.maybeSweep(now)

		r := s.reg
		r.mu.Lock()
		if r.workers[wk.id] != wk {
			// Swept or deregistered mid-stream; its leases were requeued.
			r.mu.Unlock()
			return
		}
		wk.expires = now.Add(s.cfg.LeaseTTL)
		free := batch - len(wk.assignments)
		ref, tags := wk.ref, wk.tags
		var held []*assignment
		renewDue := now.Sub(lastRenew) >= renewEvery
		if renewDue && len(wk.assignments) > 0 {
			held = make([]*assignment, 0, len(wk.assignments))
			for _, a := range wk.assignments {
				held = append(held, a)
			}
		}
		r.mu.Unlock()

		var lb api.LeaseBatch
		if renewDue {
			lastRenew = now
			lb.Cancelled = s.renewHeldLeases(held, now)
		}

		// Subscribe BEFORE the grant scan (see hub): any state change
		// after this point re-closes ch, so the park below never sleeps
		// through a wakeup.
		ch := s.hub.wait()

		var maxLSN uint64
		dispatchStart := time.Now()
		for free > 0 {
			a, wire, lsn := s.dispatchOnce(wk.id, ref, tags, now)
			if a == nil {
				break
			}
			r.mu.Lock()
			attached := r.workers[wk.id] == wk
			if attached {
				wk.assignments[a.id] = a
			}
			r.mu.Unlock()
			if !attached {
				s.requeueOrphan(a)
				return
			}
			if lsn > maxLSN {
				maxLSN = lsn
			}
			lb.Assignments = append(lb.Assignments, wire)
			free--
		}
		if len(lb.Assignments) > 0 {
			s.counters.ObserveDispatch(time.Since(dispatchStart).Nanoseconds())
		}

		open := int(s.counters.OpenJobs.Load())
		if len(lb.Assignments) > 0 || len(lb.Cancelled) > 0 || open != lastOpen {
			s.snapshotIfDue()
			// One durability wait covers the whole frame: the highest LSN
			// granted above fsyncs everything before it, which is how a
			// frame of k dispatch records costs one fsync, not k.
			if s.waitDurable(maxLSN) != nil {
				// The grants stand but were never delivered; ending the
				// stream lets them expire and requeue, like an abandoned
				// pull.
				return
			}
			lb.OpenJobs = open
			payload, err := codec.Marshal(&lb)
			if err != nil {
				return
			}
			buf = api.AppendFrame(buf[:0], payload)
			if _, err := w.Write(buf); err != nil {
				return
			}
			flusher.Flush()
			lastOpen = open
		}

		timer := time.NewTimer(renewEvery)
		select {
		case <-done:
			timer.Stop()
			return
		case <-ch:
			timer.Stop()
		case <-wk.wake:
			// Targeted nudge: one of THIS worker's leases finished, so the
			// pipeline has capacity again (plain successes don't broadcast).
			timer.Stop()
		case <-timer.C:
			// Renewal cadence: force a keepalive so the client sees a live
			// stream and the next iteration renews registration + leases.
			lastOpen = -1
		}
	}
}

// renewHeldLeases pushes every held lease's deadline forward and collects
// the ids of cancelled executions (a replica completed elsewhere) for the
// next frame. The open stream is the liveness signal for the whole
// pipeline — per-assignment heartbeats would reintroduce exactly the
// per-task request cost the stream removes. A dropped stream stops
// renewal, so an abandoned worker's leases expire and requeue within one
// TTL, same as a crashed long-poll worker. Cancellation notices repeat on
// every renewal until the worker reports the assignment; the client's
// handling is idempotent.
func (s *Service) renewHeldLeases(held []*assignment, now time.Time) []string {
	if len(held) == 0 {
		return nil
	}
	var cancelled []string
	deadline := now.Add(s.cfg.LeaseTTL)
	for _, a := range held {
		sh := s.shardOf(a.job.id)
		sh.mu.Lock()
		if sh.assignments[a.id] == a {
			a.deadline = deadline
			if a.x.cancelled {
				cancelled = append(cancelled, a.id)
			}
		}
		sh.mu.Unlock()
	}
	return cancelled
}
