package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gridsched/internal/experiment"
	"gridsched/internal/grid"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// The per-layer invocation (-trace 1) runs a workload in this process, over
// loopback TCP, with the recorder's wrappers around every layer. The timed
// phase gets this share of -seconds (the rest is left for set-up and the
// standalone probes) and alternates recording and paused slices: the
// recording ones give the spans, the paused ones the user-visible figures,
// and the difference in throughput between the two is the tracing overhead,
// measured on one running system instead of two.
const tracePhaseShare = 0.7

// zeroLayers returns every per-layer metric at 0: a layer a workload
// bypasses reports 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	return m
}

// spanAgg sums the spans of one (name, op).
type spanAgg struct {
	n      int
	durNs  int64
	selfNs int64
	durs   []float64 // ns
}

func aggKey(name, op string) string { return name + "/" + op }

// aggregate groups spans by (name, op) with their self times.
func aggregate(spans []span) map[string]*spanAgg {
	self := selfTimes(spans)
	out := make(map[string]*spanAgg)
	for i := range spans {
		s := &spans[i]
		k := aggKey(s.Name, s.Op)
		a := out[k]
		if a == nil {
			a = &spanAgg{}
			out[k] = a
		}
		a.n++
		a.durNs += s.dur()
		a.selfNs += self[s.ID]
		a.durs = append(a.durs, float64(s.dur()))
	}
	return out
}

// get returns the aggregate for (name, op), empty when none was recorded.
func get(aggs map[string]*spanAgg, name, op string) *spanAgg {
	if a := aggs[aggKey(name, op)]; a != nil {
		return a
	}
	return &spanAgg{}
}

// sumOver adds the aggregates of one span name over several ops.
func sumOver(aggs map[string]*spanAgg, name string, ops ...string) (n int, selfNs int64) {
	for _, op := range ops {
		a := get(aggs, name, op)
		n += a.n
		selfNs += a.selfNs
	}
	return n, selfNs
}

// coreMetrics fills the core.* and storage.* figures the decorator
// measured.
func coreMetrics(m map[string]float64, rec *recorder, tasks float64) {
	nf := rec.core[opNextFor].us()
	m["core.nextfor_us_p50"] = median(nf)
	m["core.nextfor_us_p99"], _ = tail(nf, 0.99)
	m["core.notebatch_us_p50"] = median(rec.core[opNoteBatch].us())
	m["core.complete_us_p50"] = median(rec.core[opComplete].us())
	m["core.build_ms"] = median(rec.core[opBuild].us()) / 1e3
	if tasks > 0 {
		m["core.us_per_task"] = float64(rec.coreNs(opNextFor, opNoteBatch, opComplete, opFailed)) / 1e3 / tasks
		m["storage.evictions_per_task"] = float64(rec.filesEvicted.Load()) / tasks
	}
	if req := rec.filesRequested.Load(); req > 0 {
		m["storage.hit_ratio"] = 100 * (1 - float64(rec.filesFetched.Load())/float64(req))
	}
}

// counterMetrics fills the journal.* and snapshot.* counts from /metrics
// scrapes taken around a timed phase.
func counterMetrics(m map[string]float64, before, after map[string]float64, tasks, seconds float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	if tasks > 0 {
		m["journal.records_per_task"] = delta("gridsched_journal_records_total") / tasks
		m["journal.bytes_per_task"] = delta("gridsched_journal_bytes_total") / tasks
	}
	m["journal.fsyncs_per_s"] = delta("gridsched_journal_fsyncs_total") / seconds
	m["snapshot.count"] += delta("gridsched_snapshots_total")
	m["snapshot.bytes_last"] = math.Max(m["snapshot.bytes_last"], after["gridsched_snapshot_bytes"])
	m["snapshot.pause_ms_max"] = math.Max(m["snapshot.pause_ms_max"], after[`gridsched_snapshot_pause_ms{stat="max"}`])
	m["ingress.shed"] += delta("gridsched_ingress_sheds_total")
	m["ingress.throttled"] += delta("gridsched_ingress_throttled_ip_total") + delta("gridsched_ingress_throttled_tenant_total")
}

// representativeJob picks the submission the direct-call and codec probes
// use: the largest initial job of the plan, cut to a third so the probes
// stay short.
func representativeJob(p streamPlan) jobSpec {
	js := p.initial[0]
	if n := len(js.w.Tasks); n > 3000 {
		cut := *js.w
		cut.Tasks = js.w.Tasks[:n/3]
		js.w = &cut
	}
	js.name = "probe"
	return js
}

// traceClosedLoop is the per-layer run of stream_mem and durable_coadd.
func traceClosedLoop(ctx context.Context, e *env, plan func() (streamPlan, error)) (*outcome, error) {
	rec := newRecorder()
	obs, err := measureClosedLoop(ctx, &deployment{sup: e.sup, rec: rec, inproc: true}, plan, e.seconds*tracePhaseShare, 1)
	if err != nil {
		return nil, err
	}
	if err := rec.writeFile(filepath.Join(e.sup.outDir, "trace-"+e.workload+".json")); err != nil {
		return nil, err
	}
	m := zeroLayers()
	o := &obs.outcome
	o.metrics = m
	workers := float64(obs.workers)
	plainS := obs.windowS - obs.tracedS

	// Paused slices: what a user sees. Whole phase: the server's counters.
	m["client.cycle_p99_ms"], _ = tail(obs.plain.cycleMs, 0.99)
	if len(obs.plain.cycleMs) > 0 {
		m["client.cycle_max_ms"] = quantile(sorted(obs.plain.cycleMs), 1)
	}
	p50 := median(obs.plain.cycleMs)
	var stalled float64
	for _, c := range obs.plain.cycleMs {
		if c > 10*p50 {
			stalled += c
		}
	}
	m["snapshot.stall_share"] = 100 * stalled / (plainS * 1e3 * workers)
	counterMetrics(m, obs.before, obs.after, float64(obs.stats.tasks), obs.windowS)
	for _, t := range obs.tenants {
		m["service.fair_share_err"] = math.Max(m["service.fair_share_err"], math.Abs(t.ShareAchieved-t.ShareTarget))
	}

	// Recording slices: where a worker's time went, per task.
	spans := rec.snapshot()
	aggs := aggregate(spans)
	tasks := float64(obs.traced.tasks)
	wallNs := obs.tracedS * 1e9 * workers
	frames := get(aggs, spanClient, opFrame)
	reports := get(aggs, spanClient, opReports)
	coreDispatch := float64(rec.coreNs(opNextFor, opNoteBatch))
	coreDone := float64(rec.coreNs(opComplete, opFailed))
	// The service's share of a lease frame cannot be told apart from the
	// frame's delivery without spans inside the program: everything between
	// a report's acknowledgement and the next frame's arrival that is not a
	// scheduler call is charged to the service.
	serviceNs := float64(get(aggs, spanService, opReports).selfNs) - coreDone + float64(frames.durNs) - coreDispatch
	nIngress, ingressNs := sumOver(aggs, spanIngress, opReports, opSubmit)
	_, ingressReportsNs := sumOver(aggs, spanIngress, opReports)
	clientNs := float64(reports.selfNs)
	unattributedNs := wallNs - float64(frames.durNs) - float64(reports.durNs)
	if tasks > 0 {
		m["client.self_us_per_task"] = clientNs / 1e3 / tasks
		m["service.self_us_per_task"] = serviceNs / 1e3 / tasks
		m["trace.unattributed_us_per_task"] = unattributedNs / 1e3 / tasks
	}
	if nIngress > 0 {
		m["ingress.self_us_per_req"] = float64(ingressNs) / 1e3 / float64(nIngress)
	}
	coreMetrics(m, rec, tasks)
	plainRate, tracedRate := float64(obs.plain.tasks)/plainS, tasks/obs.tracedS
	if plainRate > 0 {
		m["trace.overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	}
	o.notes = append(o.notes,
		fmt.Sprintf("alternating %s slices over %.1fs: %.0f tasks/s while paused, %.0f tasks/s while recording", traceSlice, obs.windowS, plainRate, tracedRate),
		fmt.Sprintf("recording slices, per-task worker wall %.2f us = client %.2f + ingress %.2f + service %.2f + core %.2f + unattributed %.2f",
			wallNs/1e3/tasks, clientNs/1e3/tasks, float64(ingressReportsNs)/1e3/tasks, serviceNs/1e3/tasks,
			(coreDispatch+coreDone)/1e3/tasks, unattributedNs/1e3/tasks),
		fmt.Sprintf("%d spans written to out/trace-%s.json", len(spans), e.workload))

	// Standalone probes on what the run captured.
	var cs codecSamples
	for _, w := range obs.rig.workers {
		if w.sampleFrame != nil {
			cs.frame, cs.batchResult = w.sampleFrame, w.sampleReport
			break
		}
	}
	if err := runProbes(m, representativeJob(obs.plan), cs, obs.walCopy, e.sup.runDir); err != nil {
		return nil, err
	}
	return o, nil
}

// traceRecover is the per-layer run of durable_recover: the crashed state
// is made by the real binary (an in-process service cannot be killed), and
// recovered in this process with and without the scheduler decorator.
func traceRecover(ctx context.Context, e *env) (*outcome, error) {
	st, err := prepareCrashedState(ctx, &deployment{sup: e.sup}, e)
	if err != nil {
		return nil, err
	}
	m := zeroLayers()
	o := &outcome{metrics: m}

	// recoverInProc recovers a copy of the crashed state inside this
	// process and returns how long service construction took.
	n := 0
	recoverInProc := func(rec *recorder) (time.Duration, error) {
		n++
		dir := fmt.Sprintf("%s-t%d", st.dir, n)
		if err := copyDir(st.dir, dir); err != nil {
			return 0, err
		}
		d := &deployment{sup: e.sup, rec: rec, inproc: true}
		start := time.Now()
		srv, err := d.startServer(serverOpts{dataDir: dir})
		if err != nil {
			return 0, err
		}
		took := time.Since(start)
		defer srv.stop()
		if err := srv.waitReady(ctx); err != nil {
			return 0, err
		}
		cl, err := d.newClient(srv.base, "json", false)
		if err != nil {
			return 0, err
		}
		bad, _, err := verifyJobs(ctx, st.led, cl)
		if err != nil {
			return 0, err
		}
		o.attempted++
		if len(bad) > 0 {
			o.failed++
			o.violations = append(o.violations, bad...)
		}
		c := srv.svc.Counters()
		m["recovery.replay_records"] = float64(c.ReplayRecords.Load())
		m["recovery.replay_s"] = float64(c.ReplayNanos.Load()) / 1e9
		m["snapshot.bytes_last"] = float64(c.SnapshotBytes.Load())
		m["snapshot.count"] = float64(c.Snapshots.Load())
		m["snapshot.pause_ms_max"] = float64(c.SnapshotPauseMaxNanos.Load()) / 1e6
		return took, nil
	}
	// Alternate decorated and plain recoveries so neither always runs on the
	// warmer process; the plain one runs last in each pair, so the counters
	// left in m are an undecorated recovery's.
	const reps = 3
	var plainMs, tracedMs []float64
	rec := newRecorder()
	for i := 0; i < reps; i++ {
		took, err := recoverInProc(rec)
		if err != nil {
			return nil, err
		}
		tracedMs = append(tracedMs, float64(took)/1e6)
		if took, err = recoverInProc(nil); err != nil {
			return nil, err
		}
		plainMs = append(plainMs, float64(took)/1e6)
	}
	if m["recovery.replay_s"] > 0 {
		m["recovery.records_per_s"] = m["recovery.replay_records"] / m["recovery.replay_s"]
	}
	if err := rec.writeFile(filepath.Join(e.sup.outDir, "trace-"+e.workload+".json")); err != nil {
		return nil, err
	}
	replayed := float64(rec.core[opReplay].count.Load()+rec.core[opNextFor].count.Load()) / reps
	coreMetrics(m, rec, replayed*reps)
	m["core.us_per_task"] = 0 // recovery dispatches nothing new; its scheduler time is replay time
	if replayed > 0 {
		m["core.replay_us_per_task"] = float64(rec.coreNs(opReplay, opNextFor, opNoteBatch, opComplete, opFailed, opBuild)) / 1e3 / (replayed * reps)
	}
	m["trace.overhead_pct"] = 100 * (median(tracedMs) - median(plainMs)) / median(plainMs)

	// What a real process pays before it can start recovering.
	start := time.Now()
	srv, err := (&deployment{sup: e.sup}).startServer(serverOpts{})
	if err != nil {
		return nil, err
	}
	err = srv.waitReady(ctx)
	m["recovery.process_start_ms"] = float64(time.Since(start)) / 1e6
	srv.stop()
	if err != nil {
		return nil, err
	}

	p, err := durableCoaddPlan(e, 0)()
	if err != nil {
		return nil, err
	}
	if err := runProbes(m, representativeJob(p), codecSamples{}, filepath.Join(st.dir, "wal.log"), e.sup.runDir); err != nil {
		return nil, err
	}
	o.attempted += st.ops.attempted.Load()
	o.failed += st.ops.failed.Load()
	o.notes = append(o.notes,
		fmt.Sprintf("in-process recovery of the %d-task state (ms): untraced %.0f, traced %.0f", recoverDrain(e), plainMs, tracedMs),
		fmt.Sprintf("%.0f scheduler assignments replayed per recovery", replayed))
	return o, nil
}

// depark separates long-poll parks from pull handling: a pull whose handler
// span is far longer than the median sat parked waiting for work, and the
// excess over the median is idle time, not service time.
func depark(durs []float64) (parkNs float64) {
	if len(durs) == 0 {
		return 0
	}
	med := median(durs)
	limit := math.Max(10*med, 1e6)
	for _, d := range durs {
		if d > limit {
			parkNs += d - med
		}
	}
	return parkNs
}

// traceSubmitPoll is the per-layer run of submit_poll.
func traceSubmitPoll(ctx context.Context, e *env) (*outcome, error) {
	// This workload's user-visible figures depend on the three processes
	// having a scheduler each, so they come from a short run on the real
	// binaries; the spans come from the in-process run after it.
	real, err := measureSubmitPoll(ctx, &deployment{sup: e.sup}, e, e.seconds/2, 1)
	if err != nil {
		return nil, fmt.Errorf("real-process phase: %w", err)
	}
	rec := newRecorder()
	obs, err := measureSubmitPoll(ctx, &deployment{sup: e.sup, rec: rec, inproc: true}, e, e.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	if err := rec.writeFile(filepath.Join(e.sup.outDir, "trace-"+e.workload+".json")); err != nil {
		return nil, err
	}
	m := zeroLayers()
	o := &obs.outcome
	o.metrics = m
	o.attempted += real.outcome.attempted
	o.failed += real.outcome.failed
	o.violations = append(o.violations, real.outcome.violations...)

	m["submit_small_p50_ms"] = median(real.submitLatencies(false))
	m["submit_large_p50_ms"] = median(real.submitLatencies(true))
	m["turnaround_p50_ms"] = median(real.turnMs)
	m["report_p99_ms"], _ = tail(real.reportMs, 0.99)
	m["client.gen_lag_p99_ms"], _ = tail(real.lagMs, 0.99)
	for i := range obs.before {
		counterMetrics(m, obs.before[i], obs.after[i], float64(obs.tasks), obs.horizonS)
	}

	// Recording slices.
	spans := rec.snapshot()
	aggs := aggregate(spans)
	tasks := float64(len(obs.reportTracedMs))
	pulls := get(aggs, spanService, opPull)
	parkNs := depark(pulls.durs)
	coreDispatch := float64(rec.coreNs(opNextFor, opNoteBatch))
	coreDone := float64(rec.coreNs(opComplete, opFailed))
	serviceNs := float64(pulls.selfNs) - parkNs - coreDispatch + float64(get(aggs, spanService, opReport).selfNs) - coreDone
	nRouter, routerNs := sumOver(aggs, spanRouter, opPull, opReport, opSubmit)
	nIngress, ingressNs := sumOver(aggs, spanIngress, opPull, opReport, opSubmit)
	_, clientNs := sumOver(aggs, spanClient, opPull, opReport)
	_, routerTaskNs := sumOver(aggs, spanRouter, opPull, opReport)
	_, ingressTaskNs := sumOver(aggs, spanIngress, opPull, opReport)
	busyNs := float64(get(aggs, spanClient, opPull).durNs+get(aggs, spanClient, opReport).durNs) - parkNs
	sumNs := float64(clientNs) + float64(routerTaskNs) + float64(ingressTaskNs) + serviceNs + coreDispatch + coreDone
	if tasks > 0 {
		m["client.self_us_per_task"] = float64(clientNs) / 1e3 / tasks
		m["service.self_us_per_task"] = serviceNs / 1e3 / tasks
		m["trace.unattributed_us_per_task"] = (busyNs - sumNs) / 1e3 / tasks
	}
	if nRouter > 0 {
		m["router.self_us_per_req"] = float64(routerNs) / 1e3 / float64(nRouter)
	}
	if nIngress > 0 {
		m["ingress.self_us_per_req"] = float64(ingressNs) / 1e3 / float64(nIngress)
	}
	// Submits whose router span was recorded: those sent in a recording
	// slice.
	var submitMB float64
	for _, j := range obs.jobs {
		if tracedAt(obs.begin, j.sent) {
			submitMB += float64(j.bytes) / 1e6
		}
	}
	if submitMB > 0 {
		m["router.submit_self_ms_per_mb"] = float64(get(aggs, spanRouter, opSubmit).selfNs) / 1e6 / submitMB
	}
	coreMetrics(m, rec, tasks)
	if p := median(obs.reportPlainMs); p > 0 {
		m["trace.overhead_pct"] = 100 * (median(obs.reportTracedMs) - p) / p
	}
	o.notes = append(real.notes(),
		fmt.Sprintf("in process, alternating %s slices: report p50 %.3f ms while paused, %.3f ms while recording", traceSlice, median(obs.reportPlainMs), median(obs.reportTracedMs)),
		fmt.Sprintf("recording slices, per-task busy wall %.2f us (parks removed) = client %.2f + router %.2f + ingress %.2f + service %.2f + core %.2f + unattributed %.2f",
			busyNs/1e3/tasks, float64(clientNs)/1e3/tasks, float64(routerTaskNs)/1e3/tasks, float64(ingressTaskNs)/1e3/tasks,
			serviceNs/1e3/tasks, (coreDispatch+coreDone)/1e3/tasks, (busyNs-sumNs)/1e3/tasks),
		fmt.Sprintf("%d spans written to out/trace-%s.json", len(spans), e.workload))

	// Standalone probes.
	js := jobSpec{tenant: -1, name: "probe", algorithm: "combined.2", seed: e.seed, w: obs.rig.large[0]}
	var cs codecSamples
	for _, w := range obs.rig.workers {
		if w.samplePull != nil {
			cs.pull, cs.report = w.samplePull, w.sampleReport
			break
		}
	}
	if err := runProbes(m, js, cs, obs.walCopy, e.sup.runDir); err != nil {
		return nil, err
	}
	return o, nil
}

// sweepCell is one simulation of the paper's sweeps.
type sweepCell struct {
	figure string
	cfg    grid.Config
	alg    experiment.Algorithm
}

// sweepCells lists every (figure, point, algorithm) cell of figures 4, 6, 7
// and 8 for one topology seed, the same grid RunExperiment walks.
func sweepCells(w *workload.Workload, seed int64) []sweepCell {
	base := func() grid.Config {
		c := grid.Config{Workload: w, Sites: grid.DefaultSites, WorkersPerSite: grid.DefaultWorkersPerSite,
			CapacityFiles: grid.DefaultCapacityFiles, Policy: storage.LRU, FileSizeBytes: grid.DefaultFileSizeBytes}
		c.Topology.Seed, c.SpeedSeed = seed, seed
		return c
	}
	var cells []sweepCell
	add := func(fig string, cfg grid.Config) {
		for _, a := range experiment.PaperAlgorithms() {
			cells = append(cells, sweepCell{fig, cfg, a})
		}
	}
	for _, v := range experiment.PaperCapacities {
		c := base()
		c.CapacityFiles = v
		add("figure4", c)
	}
	for _, v := range experiment.PaperWorkerCounts {
		c := base()
		c.WorkersPerSite = v
		add("figure6", c)
	}
	for _, v := range experiment.PaperSiteCounts {
		c := base()
		c.Sites = v
		add("figure7", c)
	}
	for _, v := range experiment.PaperFileSizesMB {
		c := base()
		c.FileSizeBytes = float64(v) * 1e6
		add("figure8", c)
	}
	return cells
}

// cellResult is what one simulated cell measured.
type cellResult struct {
	cell     sweepCell
	wallS    float64
	makespan float64
	redund   float64
	events   uint64
	done     int
}

// runCells simulates cells with the given parallelism, each scheduler
// wrapped by rec's decorator (a nil rec wraps nothing).
func runCells(ctx context.Context, cells []sweepCell, seed int64, rec *recorder, parallelism int) ([]cellResult, error) {
	out := make([]cellResult, len(cells))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, c := range cells {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c sweepCell) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			sched, err := c.alg.Build(c.cfg.Workload, c.cfg, seed)
			if err == nil {
				var res *grid.Result
				if res, err = grid.Run(c.cfg, rec.wrapScheduler(sched)); err == nil {
					out[i] = cellResult{cell: c, wallS: time.Since(start).Seconds(), makespan: res.MakespanMinutes(),
						redund: float64(res.Metrics.RedundantTransfers()), events: res.WallEvents, done: res.Metrics.TasksCompleted}
					return
				}
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s %s: %w", c.figure, c.alg.Name, err)
			}
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return out, firstErr
}

// traceSweep is the per-layer run of paper_sweep: every cell of the four
// figures through grid.Run with the decorated scheduler, and figure 8's
// cells once more undecorated for the overhead.
func traceSweep(ctx context.Context, e *env) (*outcome, error) {
	m := zeroLayers()
	o := &outcome{metrics: m}
	var genMs []float64
	var w *workload.Workload
	for i := 0; i < 5; i++ {
		start := time.Now()
		var err error
		if w, _, err = sweepSetup(e); err != nil {
			return nil, err
		}
		genMs = append(genMs, float64(time.Since(start))/1e6)
	}
	m["workload.gen_ms"] = median(genMs)

	par := min(runtime.NumCPU(), 4)
	cells := sweepCells(w, e.seed)
	var fig8 []sweepCell
	for _, c := range cells {
		if c.figure == "figure8" {
			fig8 = append(fig8, c)
		}
	}
	// Figure 8's cells run undecorated before and after the decorated pass:
	// they check that decoration changes no result, and their mean time
	// against the decorated figure 8 is the tracing overhead.
	plain, err := runCells(ctx, fig8, e.seed, nil, par)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tracedStart := time.Now()
	res, err := runCells(ctx, cells, e.seed, rec, par)
	if err != nil {
		return nil, err
	}
	tracedS := time.Since(tracedStart).Seconds()
	plainAgain, err := runCells(ctx, fig8, e.seed, nil, par)
	if err != nil {
		return nil, err
	}
	if err := rec.writeFile(filepath.Join(e.sup.outDir, "trace-"+e.workload+".json")); err != nil {
		return nil, err
	}

	var runMs []float64
	var cellS, fig8S, makespan, redundant float64
	var events uint64
	nWC, nRed := 0, 0
	for _, r := range res {
		o.attempted++
		if r.done != len(w.Tasks) {
			o.failed++
			o.violations = append(o.violations, fmt.Sprintf("%s %s completed %d of %d tasks", r.cell.figure, r.cell.alg.Name, r.done, len(w.Tasks)))
		}
		runMs = append(runMs, r.wallS*1e3)
		cellS += r.wallS
		events += r.events
		if r.cell.figure == "figure8" {
			fig8S += r.wallS
		}
		if r.cell.alg.Name == storageAffinityColumn {
			continue
		}
		makespan += r.makespan
		nWC++
		if r.cell.figure == "figure4" {
			redundant += r.redund
			nRed++
		}
	}
	// The decorated and the undecorated run of a cell must agree exactly.
	k := 0
	for _, r := range res {
		if r.cell.figure != "figure8" {
			continue
		}
		if plain[k].makespan != r.makespan || plain[k].redund != r.redund {
			o.violations = append(o.violations, fmt.Sprintf("figure8 %s: repeated cell is not identical", r.cell.alg.Name))
		}
		k++
	}
	tasks := float64(len(res) * len(w.Tasks))
	m["makespan_min"] = makespan / float64(max(nWC, 1))
	m["redundant_transfers"] = redundant / float64(max(nRed, 1))
	m["grid.run_ms_p50"] = median(runMs)
	coreNs := float64(rec.coreNs(opNextFor, opNoteBatch, opComplete, opFailed))
	m["core.share_of_sim"] = 100 * coreNs / (cellS * 1e9)
	m["grid.self_share"] = 100 - m["core.share_of_sim"]
	m["sim.events_per_s"] = float64(events) / cellS
	coreMetrics(m, rec, tasks)
	m["core.build_ms"] = 0 // cells build schedulers outside the decorator
	var plainCellS float64
	for i := range plain {
		plainCellS += (plain[i].wallS + plainAgain[i].wallS) / 2
	}
	m["trace.overhead_pct"] = 100 * (fig8S - plainCellS) / plainCellS
	if err := probeStorage(m, w); err != nil {
		return nil, err
	}
	o.notes = append(o.notes,
		fmt.Sprintf("%d cells, %.0f simulated tasks: decorated pass %.2fs wall; figure 8 cells %.2fs decorated, %.2fs plain", len(res), tasks, tracedS, fig8S, plainCellS),
		fmt.Sprintf("scheduler calls are %.1f%% of the time inside grid.Run", m["core.share_of_sim"]))
	return o, nil
}
