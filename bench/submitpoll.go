package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/partition"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/workload"
)

// The open-loop workload's fixed shape: 8 jobs/s, nine small Coadd slices
// to one large, two partitions, one classic long-poll worker on each.
const (
	submitRate      = 8.0 // jobs per second; a third to a half of what two workers clear on a 2-core box, whichever speed the host is in
	smallJobTasks   = 40
	largeJobTasks   = 400
	pollPartitions  = 2
	pollWait        = 500 * time.Millisecond
	smallPool       = 16 // distinct small traces, used round-robin
	largePool       = 4
	pollWarmupJobs  = 4
	backlogInterval = 100 * time.Millisecond
)

// pollWorker is one classic worker: pull one task, report it, repeat.
type pollWorker struct {
	idx  int
	cl   *client.Client
	rec  *recorder
	id   string
	led  *ledger
	ops  *opCounts
	stop atomic.Bool
	done chan struct{}
	err  error

	mu        sync.Mutex
	reportMs  []float64 // RTT of every accepted report
	pullMs    []float64 // RTT of the pull that fetched it, long-poll park included
	reportAt  []time.Time
	completed map[string]time.Time // job id -> when its last task's report was acknowledged
	// captured for the codec probes
	samplePull   *api.PullResponse
	sampleReport *api.ReportResponse
}

func (w *pollWorker) run(ctx context.Context) {
	defer close(w.done)
	for !w.stop.Load() {
		pctx, end := w.rec.clientSpan(ctx, opPull, w.idx)
		pullStart := time.Now()
		resp, err := w.cl.Pull(pctx, w.id, pollWait)
		end()
		w.ops.attempted.Add(1)
		if err != nil {
			if w.stop.Load() || ctx.Err() != nil {
				w.ops.attempted.Add(-1)
				return
			}
			w.ops.failed.Add(1)
			w.err = fmt.Errorf("worker %d pull: %w", w.idx, err)
			return
		}
		if resp.Status != api.StatusAssigned || resp.Assignment == nil {
			continue // the long poll timed out idle
		}
		pullMs := float64(time.Since(pullStart)) / 1e6
		a := resp.Assignment
		rctx, end := w.rec.clientSpan(ctx, opReport, w.idx)
		start := time.Now()
		rr, err := w.cl.Report(rctx, a.ID, w.id, api.OutcomeSuccess)
		now := time.Now()
		end()
		w.ops.attempted.Add(1)
		if err != nil {
			w.ops.failed.Add(1)
			w.err = fmt.Errorf("worker %d report: %w", w.idx, err)
			return
		}
		if !rr.Accepted || rr.Stale || rr.Cancelled {
			w.ops.failed.Add(1)
			continue
		}
		w.led.accept(a.JobID, a.ID)
		w.mu.Lock()
		w.reportMs = append(w.reportMs, float64(now.Sub(start))/1e6)
		w.pullMs = append(w.pullMs, pullMs)
		w.reportAt = append(w.reportAt, now)
		if rr.JobState == api.JobCompleted {
			w.completed[a.JobID] = now
		}
		if w.samplePull == nil {
			w.samplePull, w.sampleReport = resp, rr
		}
		w.mu.Unlock()
	}
}

// submitted is one job of the open-loop schedule after its submission.
type submitted struct {
	arrival
	jobID string
	dueAt time.Time
	sent  time.Time // when the submit actually left; sent-dueAt is the generator's lag
	acked time.Time
	tasks int
	bytes int // size of the workload's JSON, for per-MB figures
}

// pollRig is a running routed deployment with its workers.
type pollRig struct {
	parts    []*server
	dataDirs []string
	router   *server
	sub      *client.Client
	workers  []*pollWorker
	led      *ledger
	ops      *opCounts
	small    []*workload.Workload
	large    []*workload.Workload
	bytes    map[*workload.Workload]int // JSON size of each pool workload
}

func (r *pollRig) teardown() {
	for _, w := range r.workers {
		w.stop.Store(true)
	}
	for _, w := range r.workers {
		<-w.done
	}
	if r.router != nil {
		r.router.stop()
	}
	for _, p := range r.parts {
		p.stop()
	}
}

func (r *pollRig) firstErr() error {
	for _, w := range r.workers {
		select {
		case <-w.done:
			if w.err != nil {
				return w.err
			}
		default:
		}
	}
	return nil
}

// submitJob sends one job through the router in JSON and returns its id.
func (r *pollRig) submitJob(ctx context.Context, rec *recorder, name, submissionID string, seed int64, w *workload.Workload) (string, error) {
	sctx, end := rec.clientSpan(ctx, opSubmit, -1)
	id, err := r.sub.SubmitJobIdempotent(sctx, api.SubmitJobRequest{
		Name: name, Algorithm: "combined.2", Seed: seed, Workload: w, SubmissionID: submissionID,
	})
	end()
	r.ops.attempted.Add(1)
	if err != nil {
		r.ops.failed.Add(1)
		return "", fmt.Errorf("submit %s: %w", name, err)
	}
	return id, nil
}

// startPollRig is the set-up of submit_poll: generate the job pool, start
// two durable partitions with the whole ingress chain enabled and the
// router in front, register one long-poll worker per partition through the
// router, and push a few warm-up jobs through to completion.
func startPollRig(ctx context.Context, d *deployment, e *env) (*pollRig, error) {
	rig := &pollRig{led: newLedger(), ops: &opCounts{}, bytes: make(map[*workload.Workload]int)}
	ok := false
	defer func() {
		if !ok {
			rig.teardown()
		}
	}()
	smallTasks, largeTasks := smallJobTasks, largeJobTasks
	if e.small {
		smallTasks, largeTasks = 8, 40
	}
	for k := 0; k < smallPool; k++ {
		w, err := coadd(e.seed, k, smallTasks)
		if err != nil {
			return nil, err
		}
		rig.small = append(rig.small, w)
		rig.bytes[w] = jsonBytes(w)
	}
	for k := 0; k < largePool; k++ {
		w, err := coadd(e.seed, smallPool+k, largeTasks)
		if err != nil {
			return nil, err
		}
		rig.large = append(rig.large, w)
		rig.bytes[w] = jsonBytes(w)
	}
	var urls []string
	for i := 0; i < pollPartitions; i++ {
		dir, err := e.sup.tempDir("part")
		if err != nil {
			return nil, err
		}
		srv, err := d.startServer(serverOpts{dataDir: dir, partIndex: i, partCount: pollPartitions, ingress: true})
		if err != nil {
			return nil, err
		}
		rig.parts = append(rig.parts, srv)
		rig.dataDirs = append(rig.dataDirs, dir)
		urls = append(urls, srv.base)
	}
	for _, p := range rig.parts {
		if err := p.waitReady(ctx); err != nil {
			return nil, err
		}
	}
	router, err := d.startRouter(urls)
	if err != nil {
		return nil, err
	}
	rig.router = router
	if err := router.waitReady(ctx); err != nil {
		return nil, err
	}
	if rig.sub, err = d.newClient(router.base, "json", true); err != nil {
		return nil, err
	}

	// One worker per partition. The router places fresh registrations
	// round-robin while no partition has open jobs; check rather than
	// assume, and hand back any registration that doubles up.
	have := make(map[int]bool)
	for attempt := 0; len(rig.workers) < pollPartitions && attempt < 4*pollPartitions; attempt++ {
		cl, err := d.newClient(router.base, "json", true)
		if err != nil {
			return nil, err
		}
		rctx, end := d.rec.clientSpan(ctx, opRegister, len(rig.workers))
		reg, err := cl.Register(rctx, nil)
		end()
		rig.ops.attempted.Add(1)
		if err != nil {
			rig.ops.failed.Add(1)
			return nil, fmt.Errorf("register through router: %w", err)
		}
		owner, _ := partition.Owner(reg.WorkerID, pollPartitions)
		if have[owner] {
			_ = cl.Deregister(ctx, reg.WorkerID)
			continue
		}
		have[owner] = true
		rig.workers = append(rig.workers, &pollWorker{idx: len(rig.workers), cl: cl, rec: d.rec, id: reg.WorkerID,
			led: rig.led, ops: rig.ops, done: make(chan struct{}), completed: make(map[string]time.Time)})
	}
	if len(rig.workers) < pollPartitions {
		return nil, errors.New("could not place one worker on each partition")
	}
	for _, w := range rig.workers {
		go w.run(ctx)
	}

	// Warm-up: a few jobs on each partition, run to completion.
	want := 0
	for i := 0; i < pollWarmupJobs; i++ {
		w := rig.small[i%len(rig.small)]
		sid := ""
		for k := 0; ; k++ {
			sid = fmt.Sprintf("warm-%d-%d-%d", e.seed, i, k)
			if partition.SubmitOwner(sid, pollPartitions) == i%pollPartitions {
				break
			}
		}
		if _, err := rig.submitJob(ctx, d.rec, fmt.Sprintf("warm-%d", i), sid, e.seed, w); err != nil {
			return nil, err
		}
		want += len(w.Tasks)
	}
	deadline := time.Now().Add(30 * time.Second)
	for rig.led.total() < want {
		if err := rig.firstErr(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("warm-up jobs did not complete (%d of %d tasks)", rig.led.total(), want)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	ok = true
	return rig, nil
}

// pollObs is what one open-loop measurement observed.
type pollObs struct {
	setupS   []float64
	horizonS float64
	begin    time.Time // when the schedule started
	drainS   float64   // first due -> last job complete
	jobs     []submitted
	turnMs   []float64
	reportMs []float64
	pullMs   []float64
	// Per-layer runs record in alternate slices: the report round trips that
	// ended in a recording slice and in a paused one.
	reportTracedMs, reportPlainMs []float64
	lagMs                         []float64
	tasks                         int
	peakRSS                       float64
	status                        []api.JobStatus
	backlog                       []int // outstanding jobs, sampled every backlogInterval over the horizon
	before                        []map[string]float64
	after                         []map[string]float64
	rig                           *pollRig
	outcome                       outcome
	invalid                       []string
	meanGapMs                     float64
	walCopy                       string // copy of partition 0's write-ahead log (per-layer runs)
}

// jsonBytes is the size of w in the JSON a submit carries it in.
func jsonBytes(w *workload.Workload) int {
	b, _ := json.Marshal(w)
	return len(b)
}

// measureSubmitPoll runs the open-loop workload on deployment d.
func measureSubmitPoll(ctx context.Context, d *deployment, e *env, seconds float64, reps int) (*pollObs, error) {
	scrapeMetrics := d.inproc // the per-layer run reads the partitions' counters
	obs := &pollObs{horizonS: seconds, meanGapMs: 1e3 / submitRate}
	var rig *pollRig
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if rig, err = startPollRig(ctx, d, e); err != nil {
			return nil, err
		}
		obs.setupS = append(obs.setupS, time.Since(start).Seconds())
		if i < reps-1 {
			rig.teardown()
		}
	}
	defer rig.teardown()
	obs.rig = rig

	horizon := time.Duration(seconds * float64(time.Second))
	sched := poissonSchedule(e.seed, submitRate, horizon, pollPartitions)
	obs.jobs = make([]submitted, len(sched))
	if scrapeMetrics {
		for _, p := range rig.parts {
			m, _ := scrape(p.base)
			obs.before = append(obs.before, m)
		}
	}

	// Backlog sampler: outstanding jobs = submitted - completed.
	var sent atomic.Int64
	completedJobs := func() int {
		n := 0
		for _, w := range rig.workers {
			w.mu.Lock()
			n += len(w.completed)
			w.mu.Unlock()
		}
		return n - pollWarmupJobs
	}
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(backlogInterval)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				obs.backlog = append(obs.backlog, int(sent.Load())-completedJobs())
			}
		}
	}()

	// The submitter fires every job at its due instant whether or not
	// earlier submits have been answered (an open loop), and times each from
	// the instant it was due. maxInFlight bounds the connections it may
	// open; if it is ever reached the wait shows up as generator lag.
	const maxInFlight = 8
	d.rec.reset() // attribute the timed phase only
	begin := time.Now()
	obs.begin = begin
	stopAlternating := d.rec.alternate(begin)
	defer stopAlternating()
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		subErr  error
		slots   = make(chan struct{}, maxInFlight)
		nSmall  int
		nLarge  int
		failNow = func(err error) {
			errMu.Lock()
			if subErr == nil {
				subErr = err
			}
			errMu.Unlock()
		}
	)
	for i, a := range sched {
		due := begin.Add(a.due)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				failNow(ctx.Err())
			case <-time.After(wait):
			}
		}
		errMu.Lock()
		failed := subErr != nil
		errMu.Unlock()
		if failed {
			break
		}
		var w *workload.Workload
		if a.large {
			w = rig.large[nLarge%len(rig.large)]
			nLarge++
		} else {
			w = rig.small[nSmall%len(rig.small)]
			nSmall++
		}
		slots <- struct{}{}
		obs.jobs[i] = submitted{arrival: a, dueAt: due, sent: time.Now(), tasks: len(w.Tasks), bytes: rig.bytes[w]}
		sent.Add(1)
		wg.Add(1)
		go func(i int, w *workload.Workload) {
			defer wg.Done()
			defer func() { <-slots }()
			id, err := rig.submitJob(ctx, d.rec, fmt.Sprintf("job-%d-%d", e.seed, i), obs.jobs[i].submissionID, e.seed, w)
			if err != nil {
				failNow(err)
				return
			}
			obs.jobs[i].jobID, obs.jobs[i].acked = id, time.Now()
		}(i, w)
	}
	wg.Wait()
	close(stopSampler)
	<-samplerDone
	if subErr != nil {
		return nil, subErr
	}

	// Let the tail drain: every submitted job must complete.
	total := 0
	for _, j := range obs.jobs {
		total += j.tasks
	}
	warm := 0
	for i := 0; i < pollWarmupJobs; i++ {
		warm += len(rig.small[i%len(rig.small)].Tasks)
	}
	deadline := time.Now().Add(20 * time.Second)
	for rig.led.total() < total+warm && time.Now().Before(deadline) && rig.firstErr() == nil && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	if err := rig.firstErr(); err != nil {
		return nil, err
	}
	for _, p := range rig.parts {
		obs.peakRSS += p.peakRSSMB()
	}
	obs.peakRSS += rig.router.peakRSSMB()
	if scrapeMetrics {
		for _, p := range rig.parts {
			m, _ := scrape(p.base)
			obs.after = append(obs.after, m)
		}
	}
	for _, w := range rig.workers {
		w.stop.Store(true)
	}
	for _, w := range rig.workers {
		<-w.done
	}
	if scrapeMetrics {
		obs.walCopy = filepath.Join(d.sup.runDir, "wal-probe.log")
		if err := copyFile(filepath.Join(rig.dataDirs[0], "wal.log"), obs.walCopy); err != nil {
			return nil, err
		}
	}

	// Join submissions with completions.
	done := make(map[string]time.Time)
	var lastDone time.Time
	for _, w := range rig.workers {
		for id, at := range w.completed {
			done[id] = at
		}
		for i, at := range w.reportAt {
			if at.Before(begin) {
				continue
			}
			obs.reportMs = append(obs.reportMs, w.reportMs[i])
			obs.pullMs = append(obs.pullMs, w.pullMs[i])
			if d.rec != nil && tracedAt(begin, at) {
				obs.reportTracedMs = append(obs.reportTracedMs, w.reportMs[i])
			} else {
				obs.reportPlainMs = append(obs.reportPlainMs, w.reportMs[i])
			}
		}
	}
	o := &obs.outcome
	for _, j := range obs.jobs {
		obs.lagMs = append(obs.lagMs, float64(j.sent.Sub(j.dueAt))/1e6)
		at, ok := done[j.jobID]
		if !ok {
			o.violations = append(o.violations, fmt.Sprintf("job %s (%d tasks) never completed", j.jobID, j.tasks))
			continue
		}
		obs.turnMs = append(obs.turnMs, float64(at.Sub(j.dueAt))/1e6)
		obs.tasks += j.tasks
		if at.After(lastDone) {
			lastDone = at
		}
	}
	obs.drainS = lastDone.Sub(begin).Seconds()

	// The router's aggregated reads do not forward the caller's bearer
	// token, so with -auth-tokens on the partitions GET /v1/jobs through it
	// answers 503; the check reads each partition directly instead.
	var direct []*client.Client
	for _, p := range rig.parts {
		cl, err := d.newClient(p.base, "json", true)
		if err != nil {
			return nil, err
		}
		direct = append(direct, cl)
	}
	bad, status, err := verifyJobs(ctx, rig.led, direct...)
	if err != nil {
		return nil, err
	}
	obs.status = status
	o.violations = append(o.violations, bad...)
	for _, j := range status {
		if j.State != api.JobCompleted {
			o.violations = append(o.violations, fmt.Sprintf("job %s still %s at the end (%d of %d)", j.ID, j.State, j.Completed, j.Tasks))
		}
	}
	o.attempted, o.failed = rig.ops.attempted.Load(), rig.ops.failed.Load()
	if o.failed > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d operations failed", o.failed))
	}

	// Open-loop validity (choosing-metrics guide §5): the generator must
	// have kept its schedule and the queue must not be growing. A breach is
	// reported, loudly, but does not make the run incorrect: on a shared
	// host a stolen quarter second breaches it, and what the programs
	// answered was still right.
	if lag, _ := tail(obs.lagMs, 0.99); lag > 0.1*obs.meanGapMs && !e.small {
		obs.invalid = append(obs.invalid, fmt.Sprintf("generator lag p99 %.2f ms exceeds 10%% of the mean gap (%.1f ms)", lag, obs.meanGapMs))
	}
	if n := len(obs.backlog); n >= 8 {
		q := n / 4
		early, late := meanInts(obs.backlog[q:2*q]), meanInts(obs.backlog[n-q:])
		if late > 2*early+5 {
			obs.invalid = append(obs.invalid, fmt.Sprintf("backlog still growing at the end: %.1f jobs outstanding in the last quarter against %.1f in the second", late, early))
		}
	}
	return obs, nil
}

func meanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}

// submitLatencies returns the submit acknowledgement latencies from the due
// instant, in ms, for one size class.
func (obs *pollObs) submitLatencies(large bool) []float64 {
	var out []float64
	for _, j := range obs.jobs {
		if j.large == large {
			out = append(out, float64(j.acked.Sub(j.dueAt))/1e6)
		}
	}
	return out
}

// busyRate is the task rate the workers sustain while they have work: one
// task costs a worker a pull and a report round trip, and a pull that found
// work waiting did not park, so the median pull is an unparked one as long
// as most pulls find work (they do: a job's tasks are pulled back to back).
// The open loop's achieved throughput is just its offered load and says
// nothing about the system; this is the figure that moves when a round
// trip gets cheaper or dearer.
func (obs *pollObs) busyRate() float64 {
	perTaskMs := median(obs.pullMs) + median(obs.reportMs)
	if perTaskMs <= 0 {
		return 0
	}
	return float64(pollPartitions) * 1e3 / perTaskMs
}

func runSubmitPoll(ctx context.Context, e *env) (*outcome, error) {
	if e.trace {
		return traceSubmitPoll(ctx, e)
	}
	obs, err := measureSubmitPoll(ctx, &deployment{sup: e.sup}, e, e.seconds, setupReps)
	if err != nil {
		return nil, err
	}
	o := obs.outcome
	var transfers, dispatched int64
	for _, j := range obs.status {
		transfers += j.Transfers
		dispatched += int64(j.Dispatched)
	}
	o.metrics = map[string]float64{
		mSetupS:           median(obs.setupS),
		mTasksPerS:        obs.busyRate(),
		mOpP50Ms:          median(obs.reportMs),
		mPeakRSSMB:        obs.peakRSS,
		mTransfersPerTask: float64(transfers) / float64(max(dispatched, 1)),
	}
	o.notes = obs.notes()
	return &o, nil
}

func (obs *pollObs) notes() []string {
	lag, _ := tail(obs.lagMs, 0.99)
	out := []string{
		fmt.Sprintf("report p50 %.4f ms, pull p50 %.4f ms", median(obs.reportMs), median(obs.pullMs)),
		fmt.Sprintf("op = one classic report round trip through the router, n=%d; tasks_per_s = workers / (pull p50 + report p50)", len(obs.reportMs)),
		fmt.Sprintf("open loop: %d jobs at %.0f/s, %d tasks, last completion %.2fs after the first due time", len(obs.jobs), submitRate, obs.tasks, obs.drainS),
		fmt.Sprintf("generator lag p99 %.3f ms (mean gap %.0f ms)", lag, obs.meanGapMs),
	}
	if q := highestSupported(len(obs.reportMs)); q > 0 {
		out = append(out, fmt.Sprintf("report p%g = %.3f ms", q*100, quantile(sorted(obs.reportMs), q)))
	}
	for _, v := range obs.invalid {
		out = append(out, "OPEN LOOP NOT KEPT: "+v)
	}
	out = append(out,
		fmt.Sprintf("submit p50 from due: small %.3f ms (n=%d), large %.3f ms (n=%d); turnaround p50 %.2f ms",
			median(obs.submitLatencies(false)), len(obs.submitLatencies(false)),
			median(obs.submitLatencies(true)), len(obs.submitLatencies(true)), median(obs.turnMs)),
		fmt.Sprintf("set-up samples (s): %.3f", obs.setupS))
	return out
}
