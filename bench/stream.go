package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/workload"
)

// streamBatch is the lease-stream pipeline depth of the closed-loop
// workloads; each frame is returned as one ReportBatch.
const streamBatch = 32

// jobSpec is one job submission.
type jobSpec struct {
	tenant    int // index into the run's tenants, -1 for none
	name      string
	algorithm string
	seed      int64
	w         *workload.Workload
}

// cycle is one closed-loop iteration of a streaming worker: from one report
// acknowledgement to the next, which covers waiting for the lease frame,
// decoding it, and the ReportBatch round trip that returns it.
type cycle struct {
	end   time.Time
	dur   time.Duration
	tasks int
}

// ledger is the client's own record of what the service acknowledged, the
// reference the correctness checks compare the service's counters against.
type ledger struct {
	mu       sync.Mutex
	accepted map[string]int // job id -> accepted success reports
	n        int            // their sum
	seen     []uint64       // bitset over assignment sequence numbers
	dupes    int
}

func newLedger() *ledger { return &ledger{accepted: make(map[string]int)} }

// accept records one acknowledged completion; an assignment id seen twice
// is a violation of exactly-once completion.
func (l *ledger) accept(jobID, assignmentID string) {
	n, err := strconv.ParseUint(assignmentID[1:], 10, 64)
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.dupes++ // an id the service cannot have minted
		return
	}
	word, bit := n/64, uint64(1)<<(n%64)
	for uint64(len(l.seen)) <= word {
		l.seen = append(l.seen, make([]uint64, len(l.seen)+1024)...)
	}
	if l.seen[word]&bit != 0 {
		l.dupes++
	}
	l.seen[word] |= bit
	l.accepted[jobID]++
	l.n++
}

func (l *ledger) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// opCounts tallies operations for the result's attempted/failed fields. A
// refused, errored or rejected-stale operation is failed and contributes
// no latency sample.
type opCounts struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// streamWorker is one closed-loop worker: one lease stream, each frame
// returned as one ReportBatch.
type streamWorker struct {
	idx  int
	cl   *client.Client
	rec  *recorder
	reg  *api.RegisterResponse
	ls   *client.LeaseStream
	led  *ledger
	ops  *opCounts
	done chan struct{}
	stop atomic.Bool
	err  error

	// limit, when > 0, ends the loop once the run's ledger holds exactly
	// that many acknowledged tasks (the recover workload's fixed state).
	limit int

	// completed receives the id of every job whose last task this worker
	// reported; nil when nothing refills.
	completed chan<- string

	mu     sync.Mutex
	cycles []cycle
	// One full frame and its report, kept for the codec probes.
	sampleFrame  *api.LeaseBatch
	sampleReport []api.ReportResponse
}

func (w *streamWorker) open(ctx context.Context) error {
	rctx, end := w.rec.clientSpan(ctx, opRegister, w.idx)
	reg, err := w.cl.Register(rctx, nil)
	end()
	w.ops.attempted.Add(1)
	if err != nil {
		w.ops.failed.Add(1)
		return fmt.Errorf("worker %d register: %w", w.idx, err)
	}
	w.reg = reg
	sctx, end := w.rec.clientSpan(ctx, opStream, w.idx)
	ls, err := w.cl.StreamLeases(sctx, reg.WorkerID, streamBatch)
	end()
	w.ops.attempted.Add(1)
	if err != nil {
		w.ops.failed.Add(1)
		return fmt.Errorf("worker %d open stream: %w", w.idx, err)
	}
	w.ls = ls
	return nil
}

func (w *streamWorker) run(ctx context.Context) {
	defer close(w.done)
	last := time.Now()
	for !w.stop.Load() {
		_, end := w.rec.clientSpan(ctx, opFrame, w.idx)
		lb, err := w.ls.Next()
		end()
		if err != nil {
			if !w.stop.Load() {
				w.err = fmt.Errorf("worker %d lease stream: %w", w.idx, err)
			}
			return
		}
		if len(lb.Assignments) == 0 {
			continue // keepalive, or an open-jobs notice
		}
		as := lb.Assignments
		if w.limit > 0 {
			room := w.limit - w.led.total()
			if room <= 0 {
				return
			}
			if len(as) > room {
				as = as[:room] // the rest stay leased and expire at the crash
			}
		}
		items := make([]api.ReportItem, len(as))
		for i := range as {
			items[i] = api.ReportItem{AssignmentID: as[i].ID, Outcome: api.OutcomeSuccess}
		}
		rctx, end := w.rec.clientSpan(ctx, opReports, w.idx)
		res, err := w.cl.ReportBatch(rctx, w.reg.WorkerID, items)
		end()
		now := time.Now()
		w.ops.attempted.Add(int64(len(items)))
		if err != nil {
			w.ops.failed.Add(int64(len(items)))
			w.err = fmt.Errorf("worker %d report batch: %w", w.idx, err)
			return
		}
		for i := range res {
			if !res[i].Accepted || res[i].Stale || res[i].Cancelled {
				w.ops.failed.Add(1)
				continue
			}
			w.led.accept(as[i].JobID, as[i].ID)
			if res[i].JobState == api.JobCompleted && w.completed != nil {
				w.completed <- as[i].JobID
			}
		}
		w.mu.Lock()
		w.cycles = append(w.cycles, cycle{end: now, dur: now.Sub(last), tasks: len(as)})
		if w.sampleFrame == nil && len(lb.Assignments) == streamBatch {
			w.sampleFrame, w.sampleReport = lb, res
		}
		w.mu.Unlock()
		last = now
		if w.limit > 0 && w.led.total() >= w.limit {
			return
		}
	}
}

// halt asks the worker to stop after its current cycle and, if it is parked
// in Next with nothing to lease, closes the stream under it.
func (w *streamWorker) halt() {
	w.stop.Store(true)
	select {
	case <-w.done:
	case <-time.After(2 * time.Second):
		_ = w.ls.Close()
		<-w.done
	}
	if w.ls != nil {
		_ = w.ls.Close()
	}
}

// feeder submits jobs: the initial set during set-up, and — when refill is
// set — the next job of a tenant whenever a worker reports that the
// tenant's previous one completed. All submissions go through one
// goroutine, in the binary codec.
type feeder struct {
	cl      *client.Client
	rec     *recorder
	ops     *opCounts
	tenants []tenant
	refill  func(tenantIdx, n int) jobSpec // n counts that tenant's refills

	mu        sync.Mutex
	jobs      map[string]jobSpec // job id -> what was submitted
	refills   []int
	completed chan string
	done      chan struct{}
	err       error
}

func (f *feeder) submit(ctx context.Context, js jobSpec) (string, error) {
	req := api.SubmitJobRequest{
		Name: js.name, Algorithm: js.algorithm, Seed: js.seed, Workload: js.w,
		SubmissionID: fmt.Sprintf("%s-%d", js.name, js.seed),
	}
	if js.tenant >= 0 {
		req.Tenant, req.Weight = f.tenants[js.tenant].name, f.tenants[js.tenant].weight
	}
	sctx, end := f.rec.clientSpan(ctx, opSubmit, -1)
	id, err := f.cl.SubmitJobIdempotent(sctx, req)
	end()
	f.ops.attempted.Add(1)
	if err != nil {
		f.ops.failed.Add(1)
		return "", fmt.Errorf("submit %s: %w", js.name, err)
	}
	f.mu.Lock()
	f.jobs[id] = js
	f.mu.Unlock()
	return id, nil
}

// run refills until completed is closed.
func (f *feeder) run(ctx context.Context) {
	defer close(f.done)
	for id := range f.completed {
		if f.refill == nil || f.err != nil {
			continue
		}
		f.mu.Lock()
		js, ok := f.jobs[id]
		f.mu.Unlock()
		if !ok || js.tenant < 0 {
			continue
		}
		f.refills[js.tenant]++
		if _, err := f.submit(ctx, f.refill(js.tenant, f.refills[js.tenant])); err != nil {
			f.err = err
		}
	}
}

// streamRig is a running closed-loop deployment: one gridschedd, the
// feeder, and the workers, warmed up and leasing.
type streamRig struct {
	srv     *server
	feeder  *feeder
	workers []*streamWorker
	led     *ledger
	ops     *opCounts
}

// streamPlan says what a closed-loop workload submits and how it runs.
type streamPlan struct {
	server  serverOpts
	tenants []tenant
	initial []jobSpec
	refill  func(tenantIdx, n int) jobSpec
	workers int
	warmup  int // acknowledged tasks before set-up counts as done
	limit   int // see streamWorker.limit
}

// startStreamRig performs the whole set-up of a closed-loop workload: start
// the server, wait until it is ready, submit the initial jobs, register the
// workers and open their streams, and run until warm-up tasks are
// acknowledged. The workers are still running when it returns.
func startStreamRig(ctx context.Context, d *deployment, p streamPlan) (*streamRig, error) {
	srv, err := d.startServer(p.server)
	if err != nil {
		return nil, err
	}
	rig := &streamRig{srv: srv, led: newLedger(), ops: &opCounts{}}
	ok := false
	defer func() {
		if !ok {
			rig.teardown()
		}
	}()
	if err := srv.waitReady(ctx); err != nil {
		return nil, err
	}
	fcl, err := d.newClient(srv.base, "binary", false)
	if err != nil {
		return nil, err
	}
	// The channel holds one entry per job that can complete between two
	// reads of the feeder: far fewer than this.
	completed := make(chan string, 4096)
	rig.feeder = &feeder{
		cl: fcl, rec: d.rec, ops: rig.ops, tenants: p.tenants, refill: p.refill,
		jobs: make(map[string]jobSpec), refills: make([]int, len(p.tenants)),
		completed: completed, done: make(chan struct{}),
	}
	for _, js := range p.initial {
		if _, err := rig.feeder.submit(ctx, js); err != nil {
			return nil, err
		}
	}
	go rig.feeder.run(ctx)
	if err := rig.addWorkers(ctx, d, p.workers, p.limit, completed); err != nil {
		return nil, err
	}
	for rig.led.total() < p.warmup {
		if err := rig.firstErr(); err != nil {
			return nil, err
		}
		if rig.allDone() {
			break
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

// addWorkers registers n more streaming workers against the rig's server
// and starts their loops.
func (r *streamRig) addWorkers(ctx context.Context, d *deployment, n, limit int, completed chan<- string) error {
	first := len(r.workers)
	for i := 0; i < n; i++ {
		cl, err := d.newClient(r.srv.base, "binary", false)
		if err != nil {
			return err
		}
		w := &streamWorker{idx: first + i, cl: cl, rec: d.rec, led: r.led, ops: r.ops,
			done: make(chan struct{}), limit: limit, completed: completed}
		if err := w.open(ctx); err != nil {
			return err
		}
		r.workers = append(r.workers, w)
	}
	for _, w := range r.workers[first:] {
		go w.run(ctx)
	}
	return nil
}

func (r *streamRig) allDone() bool {
	for _, w := range r.workers {
		select {
		case <-w.done:
		default:
			return false
		}
	}
	return true
}

func (r *streamRig) firstErr() error {
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

// waitWorkers blocks until every worker has ended on its own (limit runs).
func (r *streamRig) waitWorkers(ctx context.Context) error {
	for _, w := range r.workers {
		select {
		case <-w.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return r.firstErr()
}

// quiesce stops the workers and the feeder, leaving the server up so its
// job table can be checked.
func (r *streamRig) quiesce() error {
	for _, w := range r.workers {
		w.halt()
	}
	var errs []error
	for _, w := range r.workers {
		if w.err != nil {
			errs = append(errs, w.err)
		}
	}
	if r.feeder != nil && r.feeder.completed != nil {
		close(r.feeder.completed)
		<-r.feeder.done
		r.feeder.completed = nil
		if r.feeder.err != nil {
			errs = append(errs, r.feeder.err)
		}
	}
	return errors.Join(errs...)
}

func (r *streamRig) teardown() {
	_ = r.quiesce()
	r.srv.stop()
}

// verifyJobs compares the service's job table with the client's ledger:
// every job's completed count equals the acknowledgements the client holds
// for it, a completed job has completed == tasks, and no assignment was
// accepted twice. It returns the violations and the job list. servers are
// the gridschedd instances holding the jobs (one, or every partition).
func verifyJobs(ctx context.Context, led *ledger, servers ...*client.Client) ([]string, []api.JobStatus, error) {
	var jobs []api.JobStatus
	for _, cl := range servers {
		part, err := cl.Jobs(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("listing jobs: %w", err)
		}
		jobs = append(jobs, part...)
	}
	var bad []string
	led.mu.Lock()
	defer led.mu.Unlock()
	if led.dupes > 0 {
		bad = append(bad, fmt.Sprintf("%d assignments accepted twice", led.dupes))
	}
	known := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		known[j.ID] = true
		if got := led.accepted[j.ID]; j.Completed != got {
			bad = append(bad, fmt.Sprintf("job %s: service counts %d completed, client holds %d acknowledgements", j.ID, j.Completed, got))
		}
		if j.State == api.JobCompleted && j.Completed != j.Tasks {
			bad = append(bad, fmt.Sprintf("job %s completed with %d of %d tasks", j.ID, j.Completed, j.Tasks))
		}
	}
	for id := range led.accepted {
		if !known[id] {
			bad = append(bad, fmt.Sprintf("client holds acknowledgements for unknown job %s", id))
		}
	}
	return bad, jobs, nil
}

// windowStats summarizes the cycles that ended inside a timed phase.
type windowStats struct {
	tasks   int
	cycleMs []float64
	// frameMs is each cycle's duration scaled to a full frame: the service
	// hands a worker whatever part of its 32-task pipeline is free, so under
	// load cycles get longer and fuller together; per full frame they stay
	// comparable.
	frameMs []float64
	// bucketRate is the throughput (tasks/s) of each throughputBucket-long
	// slice of the phase. Their median is the reported throughput: one
	// stolen time slice or collector pause moves a mean, not the median.
	bucketRate []float64
}

// throughputBucket is the slice length for windowStats.bucketRate.
const throughputBucket = 500 * time.Millisecond

// window summarizes the cycles that ended in [from, to) and, when keep is
// not nil, at an instant keep accepts.
func (r *streamRig) window(from, to time.Time, keep func(time.Time) bool) windowStats {
	var ws windowStats
	buckets := make([]int, max(int(to.Sub(from)/throughputBucket), 1))
	for _, w := range r.workers {
		w.mu.Lock()
		for _, c := range w.cycles {
			if c.end.Before(from) || !c.end.Before(to) || (keep != nil && !keep(c.end)) {
				continue
			}
			ws.tasks += c.tasks
			ws.cycleMs = append(ws.cycleMs, float64(c.dur)/1e6)
			ws.frameMs = append(ws.frameMs, float64(c.dur)/1e6*streamBatch/float64(c.tasks))
			if b := int(c.end.Sub(from) / throughputBucket); b < len(buckets) {
				buckets[b] += c.tasks
			}
		}
		w.mu.Unlock()
	}
	width := min(throughputBucket, to.Sub(from)).Seconds()
	for _, n := range buckets {
		ws.bucketRate = append(ws.bucketRate, float64(n)/width)
	}
	return ws
}
