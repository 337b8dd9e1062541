package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"gridsched/internal/service/api"
)

// setupReps is how many times a run performs its set-up: setup_s is the
// median, so one slow process start does not decide it. The last set-up is
// the one the timed phase runs on.
const setupReps = 3

// closedLoopObs is what one closed-loop measurement observed.
type closedLoopObs struct {
	setupS  []float64
	windowS float64
	stats   windowStats
	// Per-layer runs record in alternate slices of the timed phase: traced
	// and plain summarize the recording and the paused slices, tracedS is
	// the total length of the recording ones.
	traced, plain windowStats
	tracedS       float64
	peakRSS       float64
	jobs          []api.JobStatus
	tenants       []api.TenantStatus
	before        map[string]float64 // /metrics at the start of the timed phase (traced runs)
	after         map[string]float64
	rig           *streamRig // quiesced; server already stopped
	walCopy       string     // copy of the write-ahead log at the end of the run (per-layer runs on a durable server)
	workers       int
	plan          streamPlan // the plan of the set-up the timed phase ran on
	outcome       outcome
}

// measureClosedLoop runs a closed-loop workload on deployment d: reps
// set-ups (the plan is regenerated each time, so input generation is part
// of set-up), a timed phase of the given length on the last one, then the
// correctness checks against the still-running server.
func measureClosedLoop(ctx context.Context, d *deployment, plan func() (streamPlan, error), seconds float64, reps int) (*closedLoopObs, error) {
	obs := &closedLoopObs{}
	// The per-layer run also reads the server's counters around the timed
	// phase; the end-to-end run leaves the server alone.
	scrapeMetrics := d.inproc
	var rig *streamRig
	var p streamPlan
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if p, err = plan(); err != nil {
			return nil, err
		}
		if rig, err = startStreamRig(ctx, d, p); err != nil {
			return nil, err
		}
		obs.setupS = append(obs.setupS, time.Since(start).Seconds())
		if i < reps-1 {
			rig.teardown()
			if err := rig.firstErr(); err != nil {
				return nil, err
			}
		}
	}
	defer rig.srv.stop()

	if scrapeMetrics {
		obs.before, _ = scrape(rig.srv.base)
	}
	d.rec.reset() // attribute the timed phase only
	from := time.Now()
	stopAlternating := d.rec.alternate(from)
	select {
	case <-ctx.Done():
		stopAlternating()
		rig.teardown()
		return nil, ctx.Err()
	case <-time.After(time.Duration(seconds * float64(time.Second))):
	}
	to := time.Now()
	stopAlternating()
	obs.windowS = to.Sub(from).Seconds()
	obs.workers = len(rig.workers)
	obs.peakRSS = rig.srv.peakRSSMB()
	if err := rig.firstErr(); err != nil {
		rig.teardown()
		return nil, err
	}
	if scrapeMetrics {
		obs.after, _ = scrape(rig.srv.base)
	}
	if err := rig.quiesce(); err != nil {
		return nil, err
	}
	obs.stats = rig.window(from, to, nil)
	if d.rec != nil {
		obs.traced = rig.window(from, to, func(t time.Time) bool { return tracedAt(from, t) })
		obs.plain = rig.window(from, to, func(t time.Time) bool { return !tracedAt(from, t) })
		for t := from; t.Before(to); t = t.Add(traceSlice) {
			if tracedAt(from, t) {
				obs.tracedS += min(traceSlice, to.Sub(t)).Seconds()
			}
		}
	}
	obs.rig, obs.plan = rig, p
	if scrapeMetrics && p.server.dataDir != "" {
		// Keep the log as the run left it: stopping an in-process service
		// snapshots and rotates it.
		obs.walCopy = filepath.Join(d.sup.runDir, "wal-probe.log")
		if err := copyFile(filepath.Join(p.server.dataDir, "wal.log"), obs.walCopy); err != nil {
			return nil, err
		}
	}

	vcl, err := d.newClient(rig.srv.base, "json", false)
	if err != nil {
		return nil, err
	}
	bad, jobs, err := verifyJobs(ctx, rig.led, vcl)
	if err != nil {
		return nil, err
	}
	obs.jobs = jobs
	obs.tenants, _ = vcl.Tenants(ctx)
	obs.outcome.violations = bad
	obs.outcome.attempted, obs.outcome.failed = rig.ops.attempted.Load(), rig.ops.failed.Load()
	if obs.outcome.failed > 0 {
		obs.outcome.violations = append(obs.outcome.violations, fmt.Sprintf("%d operations failed", obs.outcome.failed))
	}
	if obs.stats.tasks == 0 {
		obs.outcome.violations = append(obs.outcome.violations, "no task was acknowledged in the timed phase")
	}
	// The workload must outlast the timed phase: a server that ran dry
	// measured the generator, not the system.
	open := 0
	for _, j := range jobs {
		if j.State == api.JobRunning {
			open++
		}
	}
	if open == 0 {
		obs.outcome.violations = append(obs.outcome.violations, "every job completed before the timed phase ended; the run measured an idle server")
	}
	return obs, nil
}

// endToEndMetrics turns a closed-loop observation into the end-to-end
// metrics. The unit operation is one worker cycle.
func (obs *closedLoopObs) endToEndMetrics() map[string]float64 {
	var transfers, dispatched int64
	for _, j := range obs.jobs {
		transfers += j.Transfers
		dispatched += int64(j.Dispatched)
	}
	return map[string]float64{
		mSetupS:           median(obs.setupS),
		mTasksPerS:        median(obs.stats.bucketRate),
		mOpP50Ms:          median(obs.stats.frameMs),
		mPeakRSSMB:        obs.peakRSS,
		mTransfersPerTask: float64(transfers) / math.Max(float64(dispatched), 1),
	}
}

func (obs *closedLoopObs) notes() []string {
	n := len(obs.stats.cycleMs)
	out := []string{fmt.Sprintf("op = one worker cycle (report ack -> lease frame -> its report ack) scaled to a full frame of %d tasks; n=%d cycles, %.1f tasks per cycle, raw cycle p50 %.4f ms; %d tasks in %.2fs",
		streamBatch, n, float64(obs.stats.tasks)/math.Max(float64(n), 1), median(obs.stats.cycleMs), obs.stats.tasks, obs.windowS)}
	if q := highestSupported(n); q > 0 {
		out = append(out, fmt.Sprintf("cycle p%g = %.3f ms", q*100, quantile(sorted(obs.stats.cycleMs), q)))
	}
	return append(out,
		fmt.Sprintf("tasks/s per %s slice: %.0f (mean over the phase %.0f)", throughputBucket, obs.stats.bucketRate, float64(obs.stats.tasks)/obs.windowS),
		fmt.Sprintf("set-up samples (s): %.3f", obs.setupS))
}

// streamMemPlan: one non-durable gridschedd with default flags and enough
// one-file workqueue jobs to outlast the run.
func streamMemPlan(e *env) func() (streamPlan, error) {
	return func() (streamPlan, error) {
		// Sized for about one and a half times the rate a 2-core box reaches,
		// so the server cannot run dry inside the timed phase. A few large
		// jobs rather than many small ones: every resident job is a
		// candidate the dispatcher weighs on each grant, and the point of
		// this workload is to leave the scheduler side idle.
		const jobs, rate = 4, 160_000.0
		jobTasks := int(math.Ceil(rate * (e.seconds + 1) / jobs))
		p := streamPlan{workers: 2, warmup: 4 * 1024}
		for i := 0; i < jobs; i++ {
			p.initial = append(p.initial, jobSpec{tenant: -1, name: fmt.Sprintf("mem-%d-%d", e.seed, i),
				algorithm: "workqueue", seed: e.seed, w: oneFileJob(jobTasks)})
		}
		return p, nil
	}
}

func runStreamMem(ctx context.Context, e *env) (*outcome, error) {
	return runClosedLoop(ctx, e, streamMemPlan(e))
}

// runClosedLoop runs a closed-loop workload end to end on the real
// binaries, or hands it to the per-layer run.
func runClosedLoop(ctx context.Context, e *env, plan func() (streamPlan, error)) (*outcome, error) {
	if e.trace {
		return traceClosedLoop(ctx, e, plan)
	}
	obs, err := measureClosedLoop(ctx, &deployment{sup: e.sup}, plan, e.seconds, setupReps)
	if err != nil {
		return nil, err
	}
	o := obs.outcome
	o.metrics, o.notes = obs.endToEndMetrics(), obs.notes()
	return &o, nil
}

// coaddJobTasks is the paper's evaluation slice; the smoke test shrinks it.
func coaddJobTasks(e *env) int {
	if e.small {
		return 300
	}
	return 6000
}

// durableCoaddPlan: one durable gridschedd (-fsync batch, default snapshot
// cadence); four tenants of weights 3:2:1:1 each keep one Coadd job under
// combined.2 resident, the next submitted when the previous completes.
func durableCoaddPlan(e *env, limit int) func() (streamPlan, error) {
	return func() (streamPlan, error) {
		dir, err := e.sup.tempDir("data")
		if err != nil {
			return streamPlan{}, err
		}
		tasks := coaddJobTasks(e)
		// Two distinct traces per tenant, used alternately: generation stays
		// out of the timed phase and every job is still a fresh submission.
		const perTenant = 2
		pool := make([][]jobSpec, len(coaddTenants))
		for t := range coaddTenants {
			for k := 0; k < perTenant; k++ {
				w, err := coadd(e.seed, t*perTenant+k, tasks)
				if err != nil {
					return streamPlan{}, err
				}
				pool[t] = append(pool[t], jobSpec{tenant: t, algorithm: "combined.2", seed: e.seed, w: w})
			}
		}
		job := func(t, n int) jobSpec {
			js := pool[t][n%perTenant]
			js.name = fmt.Sprintf("coadd-%d-%s-%d", e.seed, coaddTenants[t].name, n)
			return js
		}
		p := streamPlan{
			server:  serverOpts{dataDir: dir},
			tenants: coaddTenants,
			workers: 2,
			warmup:  2 * 1024,
			limit:   limit,
		}
		for t := range coaddTenants {
			p.initial = append(p.initial, job(t, 0))
		}
		if limit == 0 {
			p.refill = job
		} else {
			p.workers, p.warmup = 1, limit
		}
		return p, nil
	}
}

func runDurableCoadd(ctx context.Context, e *env) (*outcome, error) {
	return runClosedLoop(ctx, e, durableCoaddPlan(e, 0))
}
