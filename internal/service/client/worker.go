package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/service/api"
)

// WorkerConfig drives RunWorker.
type WorkerConfig struct {
	// Site pins the worker to a site; nil lets the server balance.
	Site *int
	// Tags are capability labels the worker advertises at registration;
	// jobs submitted with Requires only dispatch to workers whose tags
	// cover every required one.
	Tags []string
	// StageDelay, when non-nil, models file staging cost: the worker
	// sleeps StageDelay(assignment.Staged) before executing, under the
	// execution context (a cancellation aborts the wait).
	StageDelay func(staged int) time.Duration
	// Execute runs one assignment. It must honor ctx promptly: ctx is
	// cancelled when the server reports the execution cancelled (a replica
	// completed elsewhere) or the lease lost. A nil Execute is a no-op.
	// An error is reported to the server as a failed execution (the
	// scheduler requeues the task); it does not stop the worker loop.
	Execute func(ctx context.Context, ref core.WorkerRef, a *api.Assignment) error
	// OnIdle is consulted whenever a frame without grants — a changed
	// open-job count, a keepalive — leaves the worker with nothing queued,
	// running or waiting to be reported; openJobs is the frame's count of
	// jobs with work left. The stream's first frame comes at once, so a
	// worker started before any job is submitted is idle at once. Returning
	// stop ends the loop. Nil means keep going until ctx is cancelled.
	OnIdle func(ctx context.Context, openJobs int) (stop bool, err error)
	// OnReport is consulted after every report the server answered;
	// returning stop ends the loop without asking for another lease. A
	// job-draining worker uses it to exit the moment its report completes
	// the job (rep.JobState) instead of discovering it on the next idle
	// frame. outcome is what this worker reported (api.OutcomeSuccess or
	// api.OutcomeFailure) — an interrupted or failed execution reports
	// failure — and a hook counting completions must filter on it and on
	// rep.Accepted (a report whose lease had expired comes back Stale).
	OnReport func(ctx context.Context, a *api.Assignment, outcome string, rep *api.ReportResponse) (stop bool)
	// StreamBatch is the depth of the worker's lease stream, one GET
	// /v1/workers/{id}/stream connection on which the server keeps up to
	// that many assignments prefetched and renews them itself while the
	// stream is open (docs/PROTOCOL.md). Zero means one: the worker holds
	// one lease at a time and is granted its next task only once it is
	// idle, the worker-centric model.
	StreamBatch int
	// ReconnectWait, when positive, makes the worker survive server
	// outages: transport-level failures (connection refused while
	// gridschedd restarts, a severed connection) are retried at this
	// interval instead of ending the loop, and the worker re-registers once
	// the server is back. The server recovers its jobs from its journal but
	// not worker registrations — re-registration is the designed reconnect
	// path. Zero keeps the historical fail-fast behavior.
	ReconnectWait time.Duration
	// DrainGrace, when positive, makes shutdown graceful: after ctx is
	// cancelled an in-flight execution keeps running for up to this long
	// — its lease kept alive meanwhile — so the task finishes and its
	// outcome is reported instead of abandoning the lease to expire
	// server-side. The loop starts no new work either way, and RunWorker
	// still deregisters on the way out. Zero keeps the historical behavior:
	// cancellation aborts the execution immediately (which reports a
	// failure, requeueing the task).
	DrainGrace time.Duration
}

// RunWorker registers a worker and runs the full protocol loop — lease,
// execute, report — until ctx is cancelled (returns nil), a hook stops it
// (nil), or a protocol error occurs. Leases come from a lease stream of
// depth StreamBatch, which the server keeps alive; outcomes go back through
// ReportBatch. One table says what a failed request means, whether it
// registered, opened the stream or reported outcomes:
//
//   - 401/403: the credential was rejected (or revoked mid-run). Terminal —
//     re-sending the same bad token is the one retry that can never work.
//   - 429: shed or rate-limited. The registration is intact — back off
//     (capped, jittered, honoring Retry-After) and try again;
//     re-registering would only add load.
//   - 404: the registration lapsed (the process was suspended, or the
//     server restarted: registrations are not journaled). Re-register.
//   - 409: a stream is still attached — the server has not noticed the
//     previous one drop yet. Deregister (which requeues whatever it held)
//     and re-register rather than die on a transient network fault. An idle
//     worker does the same once it has seen zero open jobs for one lease
//     TTL, for a fresh placement: behind a partition router that lands it
//     on the live partition with the most open jobs, so an idle fleet
//     drains a partition that recovered work after an outage instead of
//     starving it. Against a single gridschedd the move is a harmless
//     no-op.
//   - a stream that drops after it opened is reopened at once, on the same
//     registration.
//   - transport errors, 503, 421: terminal unless ReconnectWait is set.
//     With it the worker waits that long and then registers anew — the
//     server may have restarted (registrations are not journaled), and
//     behind a router the new registration lands on a partition that is
//     up — unless outcomes are waiting to be reported: those can only
//     land on the registration that holds their leases, so the report is
//     retried there for as long as the leases can still be alive (one
//     lease TTL) before the outcomes are given up.
//
// Finished work is never dropped on the way: outcomes wait in a pending
// list until a report lands, across retries and reconnects. A retried
// report is stale at worst — the lease expired meanwhile, or an earlier
// attempt landed — and the server never double-counts one.
func (c *Client) RunWorker(ctx context.Context, cfg WorkerConfig) error {
	err := c.runWorker(ctx, cfg)
	if authErr(err) {
		return fmt.Errorf("client: worker credentials rejected: %w", err)
	}
	return err
}

func (c *Client) runWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg.StreamBatch = max(cfg.StreamBatch, 1)
	w := workerLoop{c: c, cfg: cfg}
	var reg *api.RegisterResponse // nil: not (or no longer) registered
	defer func() {
		if reg != nil {
			dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
			defer cancel()
			_ = c.Deregister(dctx, reg.WorkerID)
		}
	}()
	for ctx.Err() == nil {
		var err error
		if reg == nil {
			reg, err = c.RegisterWorker(ctx, cfg.Site, cfg.Tags)
		}
		if err == nil {
			var done bool
			if done, err = w.serve(ctx, reg); done {
				return err
			}
		}
		if ctx.Err() != nil {
			return nil
		}
		var ae *APIError
		status := 0
		if errors.As(err, &ae) {
			status = ae.StatusCode
		}
		var wait time.Duration
		switch {
		case errors.Is(err, errStreamDropped):
		case authErr(err):
			return err
		case status == http.StatusTooManyRequests:
			w.shed = shedDelay(w.shed, ae.RetryAfter)
			wait = w.shed
		case reg != nil && status == http.StatusNotFound:
			reg = nil
		case reg != nil && (status == http.StatusConflict || errors.Is(err, errRebalance)):
			_ = c.Deregister(ctx, reg.WorkerID)
			reg = nil
		case cfg.ReconnectWait > 0 && transientErr(err):
			wait = cfg.ReconnectWait
			if reg != nil && (len(w.pending) == 0 || time.Since(w.failing) > time.Duration(reg.LeaseTTLMillis)*time.Millisecond) {
				w.pending, reg = nil, nil
			}
		default:
			return err
		}
		_ = sleepCtx(ctx, wait) // cut short by ctx, which ends the loop
	}
	return nil
}

// workerLoop is RunWorker's state across reconnects and re-registrations.
type workerLoop struct {
	c   *Client
	cfg WorkerConfig
	// shed is the current 429 backoff; a delivered frame or a landed report
	// resets it.
	shed time.Duration
	// pending holds finished assignments whose report has not landed yet;
	// failing is when a report of them first failed (zero: none has).
	pending []reportEntry
	failing time.Time
}

// reportEntry is one finished assignment awaiting its report.
type reportEntry struct {
	a       *api.Assignment
	outcome string
}

var (
	// errStreamDropped is a lease stream that died after it opened.
	errStreamDropped = errors.New("client: lease stream dropped")
	// errRebalance ends a registration that has sat idle on a server with
	// no open jobs for one lease TTL.
	errRebalance = errors.New("client: idle worker rebalancing")
)

// serve runs the worker on one lease stream (GET /v1/workers/{id}/stream:
// the server pushes frames and renews what the worker holds for as long as
// it is open) until the worker is done (done, with the error to return, if
// any) or a request failed (!done, with the error for RunWorker's table).
// The loop executes assignments one at a time off the queue of prefetched
// leases and reports outcomes in batches. On a failed request nothing is
// left in flight or queued — only pending survives.
func (w *workerLoop) serve(ctx context.Context, reg *api.RegisterResponse) (done bool, err error) {
	cfg := w.cfg
	ref := core.WorkerRef{Site: reg.Site, Worker: reg.Worker}
	// Flush at half the pipeline depth: unreported completions occupy
	// pipeline slots server-side, so waiting for a full batch would stall
	// the grant flow exactly when it is busiest.
	flushAt := max(1, cfg.StreamBatch/2)

	// Frames are read one at a time, each by its own goroutine, and the next
	// read starts only once the loop has dealt with the last frame — a hook
	// that stops the worker on an idle frame stops it before another read.
	// Reads outlive ctx: during a graceful drain the in-flight lease must
	// stay alive (the stream stays open) until it is reported.
	type frame struct {
		lb  *api.LeaseBatch
		err error
	}
	rctx, stopReads := context.WithCancel(context.WithoutCancel(ctx))
	reads := make(chan frame, 1)
	reading := false
	var ls *LeaseStream // opened by the first read, after the first flush
	read := func() (*api.LeaseBatch, error) {
		if ls == nil {
			var err error
			if ls, err = w.c.StreamLeases(rctx, reg.WorkerID, cfg.StreamBatch); err != nil {
				return nil, err
			}
		}
		lb, err := ls.Next()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errStreamDropped, err)
		}
		return lb, nil
	}
	defer func() {
		stopReads()
		if reading {
			<-reads
		}
		if ls != nil {
			ls.Close()
		}
	}()

	var (
		queue     []*api.Assignment
		inflight  *api.Assignment
		resCh     chan string
		cancelEx  context.CancelFunc
		idleSince time.Time // first idle frame of the current stretch with no open jobs
	)
	finishExec := func(outcome string) {
		cancelEx()
		w.pending = append(w.pending, reportEntry{inflight, outcome})
		inflight = nil
	}
	// abandon aborts the in-flight execution and converts every prefetched-
	// but-unexecuted assignment into a failure report, so the server hears
	// about abandoned work as soon as a report gets through instead of
	// waiting out a lease TTL. The server holds the matching guarantee from
	// the other side: re-opening a stream expires and requeues whatever the
	// worker still held, so these reports land stale at worst.
	abandon := func() {
		if inflight != nil {
			cancelEx()
			finishExec(<-resCh)
		}
		for _, a := range queue {
			w.pending = append(w.pending, reportEntry{a, api.OutcomeFailure})
		}
		queue = nil
	}
	flush := func() (stop bool, err error) {
		items := make([]api.ReportItem, len(w.pending))
		for i, p := range w.pending {
			items[i] = api.ReportItem{AssignmentID: p.a.ID, Outcome: p.outcome}
		}
		// Reports must not die with ctx: a short detached context lets a
		// draining worker land its outcomes.
		fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		results, err := w.c.ReportBatch(fctx, reg.WorkerID, items)
		cancel()
		if err != nil {
			if w.failing.IsZero() {
				w.failing = time.Now()
			}
			return false, err
		}
		w.shed, w.failing = 0, time.Time{}
		finished := w.pending
		w.pending = nil
		for i := range finished {
			if cfg.OnReport != nil && cfg.OnReport(ctx, finished[i].a, finished[i].outcome, &results[i]) {
				stop = true
			}
		}
		return stop, nil
	}

	for {
		if inflight == nil && len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			execCtx, cancel := drainContext(ctx, cfg.DrainGrace)
			inflight, cancelEx, resCh = a, cancel, make(chan string, 1)
			go func(ch chan<- string) { ch <- w.c.executeOne(execCtx, ref, a, cfg) }(resCh)
		}
		if len(w.pending) > 0 && (inflight == nil || len(w.pending) >= flushAt) {
			stop, err := flush()
			if stop || err != nil {
				abandon()
				return stop, err
			}
		}
		// Ask for the next frame only after the flush: a reopened stream
		// expires what the worker held, and a report that lands first counts.
		if !reading && ctx.Err() == nil {
			reading = true
			go func() {
				lb, err := read()
				reads <- frame{lb, err}
			}()
		}
		select {
		case <-ctx.Done():
			// Drain: the in-flight task gets its DrainGrace, the queued
			// leases are abandoned (they expire and requeue server-side),
			// and whatever finished is reported.
			if inflight != nil {
				finishExec(<-resCh)
			}
			if len(w.pending) > 0 {
				_, _ = flush()
			}
			return true, nil
		case f := <-reads:
			reading = false
			if f.err != nil {
				abandon()
				return false, f.err
			}
			lb := f.lb
			w.shed = 0
			for i := range lb.Assignments {
				queue = append(queue, &lb.Assignments[i])
			}
			for _, id := range lb.Cancelled {
				// A notice can outlive its execution (it crossed the report on
				// the wire); only what is still here is cancelled. An assignment
				// cancelled before it ever ran (a replica finished elsewhere) is
				// reported as a failure without executing; the server accounts it
				// as a cancellation.
				if inflight != nil && inflight.ID == id {
					cancelEx()
				} else if i := slices.IndexFunc(queue, func(a *api.Assignment) bool { return a.ID == id }); i >= 0 {
					w.pending = append(w.pending, reportEntry{queue[i], api.OutcomeFailure})
					queue = slices.Delete(queue, i, i+1)
				}
			}
			if inflight != nil || len(queue) > 0 || len(w.pending) > 0 {
				idleSince = time.Time{}
				break
			}
			if cfg.OnIdle != nil {
				stop, err := cfg.OnIdle(ctx, lb.OpenJobs)
				if err != nil || stop {
					return true, err
				}
			}
			switch {
			case lb.OpenJobs > 0:
				idleSince = time.Time{}
			case idleSince.IsZero():
				idleSince = time.Now()
			case time.Since(idleSince) >= time.Duration(reg.LeaseTTLMillis)*time.Millisecond:
				return false, errRebalance
			}
		case outcome := <-resCh: // nil, or drained, while nothing is in flight
			finishExec(outcome)
		}
	}
}

// drainContext builds the execution context for one assignment. With a
// positive grace the context outlives ctx by up to grace — a shutdown
// signal lets the in-flight task finish and report instead of abandoning
// its lease — while the returned cancel still aborts it immediately
// (cancelled execution, lost lease) and must be called once the execution
// ends.
func drainContext(ctx context.Context, grace time.Duration) (context.Context, context.CancelFunc) {
	if grace <= 0 {
		return context.WithCancel(ctx)
	}
	execCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	unwatch := context.AfterFunc(ctx, func() { time.AfterFunc(grace, cancel) })
	return execCtx, func() { unwatch(); cancel() }
}

// executeOne stages and executes one assignment under execCtx and returns
// the outcome to report: failure when the execution errored or was
// interrupted mid-flight (never claim success for an abandoned task — the
// server counts it as cancelled if it obsoleted the execution itself).
func (c *Client) executeOne(execCtx context.Context, ref core.WorkerRef, a *api.Assignment, cfg WorkerConfig) string {
	var execErr error
	if cfg.StageDelay != nil && a.Staged > 0 {
		if d := cfg.StageDelay(a.Staged); d > 0 {
			select {
			case <-execCtx.Done():
			case <-time.After(d):
			}
		}
	}
	if execCtx.Err() == nil && cfg.Execute != nil {
		execErr = cfg.Execute(execCtx, ref, a)
	}
	if execErr != nil || execCtx.Err() != nil {
		return api.OutcomeFailure
	}
	return api.OutcomeSuccess
}
