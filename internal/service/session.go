// Lease sessions: the one loop through which a worker is granted leases.
// A worker attaches to it in one of two ways, and they differ only in how
// many leases the worker may hold and how many frames the session lasts:
//
//   - POST /v1/workers/{id}/pull is a session of depth 1 that ends with its
//     first frame: the granted assignment, or "empty" at the poll deadline.
//     The worker keeps that lease alive itself (heartbeats) and holds no
//     session while it executes.
//   - GET /v1/workers/{id}/stream is a session of depth ?batch that lasts as
//     long as the chunked response stays open and pushes a LeaseBatch frame
//     whenever there is something to say: grants, cancellation notices, a
//     changed open-job count, a keepalive. The open session is the liveness
//     signal — every third of a TTL it renews the leases the worker holds,
//     the very renewal a heartbeat performs for one lease (renewLease) — so
//     when the stream drops, renewal stops and the ordinary sweep expires and
//     requeues whatever the worker held, exactly the crashed-poller story.
//
// Reports flow back through ReportBatch (leases.go) from either kind of
// worker; a single report is a batch of one.
package service

import (
	"maps"
	"net/http"
	"slices"
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

// session is one attachment of a worker: the n-th it has had.
type session struct {
	wk *worker
	n  uint64
}

// attachWorker claims the worker for a lease session of the given kind. A
// worker has one session at a time — the two kinds disagree about how many
// leases it may hold — and a pull grants one lease at a time: attaching to a
// worker with a stream open, or pulling for one that still holds a lease, is
// a 409. An attached pull instead gives way to whatever attaches next and
// ends with a 499: a long-poll that the client (or a proxy) gave up on looks
// parked to the server until the connection is seen to close, and the pull
// that follows it must not be refused for that.
//
// A stream instead starts with an empty pipeline: anything the worker still
// held is expired and requeued on the spot, exactly as Deregister would.
// This is load-bearing for liveness, not hygiene. Assignments granted on a
// previous stream but severed mid-frame were never received by the client,
// and grants are pushed only once — yet the new stream would renew those
// held leases every TTL/3, so they could neither expire nor be re-delivered
// and the pipeline capacity they occupy would be lost for the stream's
// whole lifetime. The client mirrors this: on a drop it abandons everything
// undelivered-to-execution and re-reports finished work, which lands stale
// against the requeue — never double-counted.
func (s *Service) attachWorker(workerID, kind string) (session, error) {
	if s.closed.Load() {
		return session{}, errf(http.StatusServiceUnavailable, "service: closed")
	}
	now := s.now()
	s.maybeSweep(now)
	r := s.reg
	r.mu.Lock()
	w := r.workers[workerID]
	var err error
	switch {
	case w == nil:
		err = errUnknownWorker(workerID)
	case w.attached == streamSession:
		err = errf(http.StatusConflict, "service: worker %q already has a %s attached", workerID, w.attached)
	case kind == pullSession && len(w.assignments) > 0:
		err = errf(http.StatusConflict, "service: worker %q already holds an assignment", workerID)
	}
	if err != nil {
		r.mu.Unlock()
		return session{}, err
	}
	if w.attached != "" {
		w.nudge() // the pull this supersedes; at worst it finds out on its renewal tick
	}
	w.attached = kind
	w.sessions++
	ss := session{w, w.sessions}
	w.expires = now.Add(s.cfg.LeaseTTL)
	held := slices.Collect(maps.Values(w.assignments))
	r.mu.Unlock()
	// A concurrent report (the client retrying its pending batch) may have
	// already ended a lease; only what is still live expires.
	s.expireLeases(now, held...)
	if len(held) > 0 {
		s.hub.broadcast()
		s.snapshotIfDue()
	}
	return ss, nil
}

func errUnknownWorker(workerID string) error {
	return errf(http.StatusNotFound, "service: unknown worker %q (lease expired? re-register)", workerID)
}

// serve runs an attached worker's lease session to its end, which detaches
// it. Each turn renews the worker's registration and, every third of a TTL,
// the leases it holds (collecting cancellation notices — a replica completed
// elsewhere — which therefore repeat until the worker reports the
// assignment); grants the worker tasks until it holds depth of them or
// nothing is dispatchable; waits for the grants to be durable; hands the
// frame to deliver; and parks until something changes. deliver says for how
// long the session may park at most, or !more to end it; tick tells it that
// the previous park ran out the renewal interval instead of being woken.
// Locks are taken one at a time (registry, the service lock inside
// dispatchOnce), and the durability wait runs outside all of them. parked is the time spent
// parked, which is not service latency.
func (s *Service) serve(done <-chan struct{}, ss session, depth int, deliver func(lb api.LeaseBatch, tick bool) (wait time.Duration, more bool)) (parked time.Duration, err error) {
	r, wk := s.reg, ss.wk
	defer func() {
		r.mu.Lock()
		if wk.sessions == ss.n {
			wk.attached = ""
		}
		r.mu.Unlock()
	}()
	renewEvery, renewed := s.cfg.LeaseTTL/3, s.now()
	tick := false
	for {
		if s.closed.Load() {
			return parked, errf(http.StatusServiceUnavailable, "service: closed")
		}
		s.maybeSweep(s.now())

		r.mu.Lock()
		if err := r.endedLocked(ss); err != nil {
			r.mu.Unlock()
			return parked, err
		}
		// Read under the lock that says how many places are free: a grant is
		// never stamped earlier than the report that made room for it.
		now := s.now()
		wk.expires = now.Add(s.cfg.LeaseTTL)
		free := depth - len(wk.assignments)
		ref, tags := wk.ref, wk.tags
		var held []*assignment
		if now.Sub(renewed) >= renewEvery {
			renewed = now
			held = slices.Collect(maps.Values(wk.assignments))
		}
		r.mu.Unlock()

		var lb api.LeaseBatch
		for _, a := range held {
			if _, cancelled := s.renewLease(a, now); cancelled {
				lb.Cancelled = append(lb.Cancelled, a.id)
			}
		}

		// Subscribe BEFORE the grant scan: any state change after this point
		// closes ch, so a wakeup between a fruitless scan and the park is
		// never lost.
		ch := s.hub.wait()
		var maxLSN uint64
		dispatchStart := time.Now()
		for ; free > 0; free-- {
			a, wire, lsn := s.dispatchOnce(wk.id, ref, tags, now)
			if a == nil {
				break
			}
			r.mu.Lock()
			err := r.endedLocked(ss)
			if err == nil {
				wk.assignments[a.id] = a
			}
			r.mu.Unlock()
			if err != nil {
				s.requeueOrphan(a)
				return parked, err
			}
			maxLSN = max(maxLSN, lsn)
			lb.Assignments = append(lb.Assignments, wire)
		}
		if len(lb.Assignments) > 0 {
			s.counters.ObserveDispatch(time.Since(dispatchStart).Nanoseconds())
			s.snapshotIfDue()
			// One durability wait covers the whole frame: the highest LSN
			// granted above fsyncs everything before it, which is how a
			// frame of k dispatch records costs one fsync, not k.
			if err := s.waitDurable(maxLSN); err != nil {
				// The grants stand (journaled and leased) but are never
				// delivered: the session ends with an error and they expire
				// back into the queue.
				return parked, err
			}
		}
		lb.OpenJobs = int(s.counters.OpenJobs.Load())
		wait, more := deliver(lb, tick)
		if !more {
			return parked, nil
		}

		// Park no longer than the renewal interval, so the next turn renews
		// the registration (and the held leases) in time.
		timer := time.NewTimer(min(wait, renewEvery))
		parkStart := time.Now()
		tick = false
		select {
		case <-done:
			timer.Stop()
			return parked + time.Since(parkStart), errf(499, "service: lease session abandoned by client")
		case <-ch:
		case <-wk.wake:
			// Targeted nudge: one of THIS worker's leases ended, so it has a
			// free place again (plain successes don't broadcast).
		case <-timer.C:
			tick = true
		}
		timer.Stop()
		parked += time.Since(parkStart)
	}
}

// endedLocked says why a session is over behind its back, nil if it is not:
// the worker was swept or deregistered (its leases were requeued), or a
// newer session took the place of this pull. Callers hold r.mu.
func (r *registry) endedLocked(ss session) error {
	switch {
	case r.workers[ss.wk.id] != ss.wk:
		return errUnknownWorker(ss.wk.id)
	case ss.wk.sessions != ss.n:
		return errf(499, "service: pull superseded by a newer lease session of worker %q", ss.wk.id)
	}
	return nil
}

// requeueOrphan expires a just-granted assignment whose session ended
// between the grant and the attach (deregistered, swept or superseded
// mid-dispatch), returning the task to the queue as if the lease expired
// instantly.
func (s *Service) requeueOrphan(a *assignment) {
	s.expireLeases(s.now(), a)
	s.hub.broadcast()
}

// Pull hands the worker a leased task, parking up to wait for one to become
// dispatchable. It blocks in ServeHTTP; done aborts the park (request
// context).
func (s *Service) Pull(done <-chan struct{}, workerID string, wait time.Duration) (*api.PullResponse, error) {
	resp, _, err := s.pull(done, workerID, wait)
	return resp, err
}

// pull implements Pull — a lease session of depth 1 that ends with its first
// frame — and additionally reports how long the call spent parked waiting
// for work. The park is the long-poll portion of the request's wall time —
// up to the full poll budget on an idle system — and the HTTP handler
// forwards it to the ingress shedder (middleware.ObserveParked) so it is
// never mistaken for service latency.
func (s *Service) pull(done <-chan struct{}, workerID string, wait time.Duration) (resp *api.PullResponse, parked time.Duration, err error) {
	s.counters.Pulls.Add(1)
	ss, err := s.attachWorker(workerID, pullSession)
	if err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(min(max(wait, 0), maxPullWait))
	openSeen := -1
	parked, err = s.serve(done, ss, 1, func(lb api.LeaseBatch, _ bool) (time.Duration, bool) {
		left := time.Until(deadline)
		switch {
		case len(lb.Assignments) > 0:
			resp = &api.PullResponse{Status: api.StatusAssigned, Assignment: &lb.Assignments[0], OpenJobs: lb.OpenJobs}
		case lb.OpenJobs < openSeen || left <= 0:
			// Besides the deadline, a job finishing while we wait ends the
			// poll: drain-watching clients (exit-when-idle workers, the live
			// runtime) react at the completion broadcast instead of sitting
			// out the rest of their poll budget.
			resp = &api.PullResponse{Status: api.StatusEmpty, OpenJobs: lb.OpenJobs}
		default:
			openSeen = lb.OpenJobs
			return left, true
		}
		return 0, false
	})
	return resp, parked, err
}

// handleStream is a lease session of depth ?batch that lasts until the
// client goes away, one length-prefixed LeaseBatch per frame.
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
	ss, err := s.attachWorker(r.PathValue("id"), streamSession)
	if err != nil {
		writeError(w, err)
		return
	}
	// Commit the response before the first grant so the client unblocks
	// (and learns the negotiated codec) immediately.
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	start := time.Now()
	var buf []byte
	lastOpen := -1
	// Whatever ends the session — the client gone, the worker deregistered,
	// the service closing, a failed durability wait — ends the response, and
	// the worker's leases expire and requeue unless it reconnects in time.
	_, _ = s.serve(r.Context().Done(), ss, batch, func(lb api.LeaseBatch, tick bool) (time.Duration, bool) {
		// A frame goes out when it says something, and on every renewal tick
		// as a keepalive that shows the client a live stream.
		if len(lb.Assignments) > 0 || len(lb.Cancelled) > 0 || lb.OpenJobs != lastOpen || tick {
			payload, err := codec.Marshal(&lb)
			if err != nil {
				return 0, false
			}
			buf = api.AppendFrame(buf[:0], payload)
			if _, err := w.Write(buf); err != nil {
				return 0, false
			}
			flusher.Flush()
			lastOpen = lb.OpenJobs
		}
		return s.cfg.LeaseTTL, true
	})
	// The stream's whole lifetime is a park, exactly like a long poll's
	// wait: report it to the ingress shedder so an open (mostly idle)
	// stream is never mistaken for a slow request.
	middleware.ObserveParked(r.Context(), time.Since(start))
}
