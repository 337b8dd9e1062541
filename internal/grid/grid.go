// Package grid wires the paper's system model (§2.2) into the simulation
// kernel: sites with workers and a single data server each, one external
// file server holding every file, and a global scheduler consulted by idle
// workers.
//
// Each actor is a sim process. Workers loop pull-request → batch file
// request → compute; the data server serves batch requests strictly one at
// a time (assumption 3), fetching only missing files from the external file
// server over the shared wide-area network (internal/netsim); a task starts
// computing only once every input file is resident (assumption 5).
package grid

import (
	"fmt"
	"math"
	"math/rand"

	"gridsched/internal/core"
	"gridsched/internal/metrics"
	"gridsched/internal/netsim"
	"gridsched/internal/sim"
	"gridsched/internal/storage"
	"gridsched/internal/top500"
	"gridsched/internal/topology"
	"gridsched/internal/trace"
	"gridsched/internal/workload"
)

// Config describes one simulation run. Zero values are filled from the
// paper's Table 1 defaults by Normalize.
type Config struct {
	Workload *workload.Workload   `json:"-"`
	Topology topology.TiersConfig `json:"topology"`
	// Sites is how many of the topology's generated sites participate.
	Sites          int `json:"sites"`
	WorkersPerSite int `json:"workersPerSite"`
	// CapacityFiles is each data server's storage capacity, in files.
	CapacityFiles int            `json:"capacityFiles"`
	Policy        storage.Policy `json:"policy"`
	// FileSizeBytes is the uniform file size (assumption 8).
	FileSizeBytes float64 `json:"fileSizeBytes"`
	// PerFileMflop calibrates task compute cost: cost(t) = PerFileMflop *
	// |files(t)| MFLOP, divided by the worker's sampled speed (MFLOPS).
	PerFileMflop float64 `json:"perFileMflop"`
	// SpeedSeed seeds the Top500 worker-speed sampler (§5.2).
	SpeedSeed int64 `json:"speedSeed"`
	// PollIntervalSec is how long a worker in Wait status (replica cap
	// reached) sleeps before asking the scheduler again.
	PollIntervalSec float64 `json:"pollIntervalSec"`

	// Replication enables proactive popularity-driven data replication
	// (Ranganathan & Foster [13], discussed in the paper's §3.1). The
	// zero value disables it.
	Replication ReplicationConfig `json:"replication"`

	// Tracer, when non-nil, receives the run's full event timeline
	// (internal/trace). Tracing does not perturb the simulation.
	Tracer trace.Tracer `json:"-"`

	// ChurnMeanUpSec and ChurnMeanDownSec model worker unavailability
	// (the overloaded resource suppliers of §1): each worker alternates
	// exponentially distributed available/unavailable periods. A failure
	// mid-execution loses the execution; the scheduler requeues the task.
	// Zero ChurnMeanUpSec disables churn.
	ChurnMeanUpSec   float64 `json:"churnMeanUpSec"`
	ChurnMeanDownSec float64 `json:"churnMeanDownSec"`
}

// Paper defaults: the paper's Table 1, plus the calibration constants the
// simulation needs beyond it. The shape tests (shapes_test.go at the module
// root) check the paper's qualitative claims under them.
const (
	DefaultCapacityFiles   = 6000
	DefaultWorkersPerSite  = 1
	DefaultSites           = 10
	DefaultFileSizeBytes   = 25e6
	DefaultPerFileMflop    = 1.2e6
	DefaultPollIntervalSec = 60
)

// Normalize fills unset fields with the paper's defaults and validates the
// result against the workload.
func (c *Config) Normalize() error {
	if c.Workload == nil {
		return fmt.Errorf("grid: nil workload")
	}
	if c.Sites == 0 {
		c.Sites = DefaultSites
	}
	if c.WorkersPerSite == 0 {
		c.WorkersPerSite = DefaultWorkersPerSite
	}
	if c.CapacityFiles == 0 {
		c.CapacityFiles = DefaultCapacityFiles
	}
	if c.Policy == 0 {
		c.Policy = storage.LRU
	}
	if c.FileSizeBytes == 0 {
		c.FileSizeBytes = DefaultFileSizeBytes
	}
	if c.PerFileMflop == 0 {
		c.PerFileMflop = DefaultPerFileMflop
	}
	if c.PollIntervalSec == 0 {
		c.PollIntervalSec = DefaultPollIntervalSec
	}
	if c.Topology.WANNodes == 0 {
		c.Topology = topology.DefaultTiersConfig(1)
	}
	if c.Sites < 1 || c.Sites > c.Topology.SiteCount() {
		return fmt.Errorf("grid: Sites = %d with topology of %d sites", c.Sites, c.Topology.SiteCount())
	}
	if c.WorkersPerSite < 1 {
		return fmt.Errorf("grid: WorkersPerSite = %d", c.WorkersPerSite)
	}
	if c.FileSizeBytes <= 0 || c.PerFileMflop <= 0 || c.PollIntervalSec <= 0 {
		return fmt.Errorf("grid: non-positive calibration constant")
	}
	if err := c.Replication.normalize(); err != nil {
		return err
	}
	if c.ChurnMeanUpSec < 0 || c.ChurnMeanDownSec < 0 {
		return fmt.Errorf("grid: negative churn period")
	}
	if c.ChurnMeanUpSec > 0 && c.ChurnMeanDownSec == 0 {
		c.ChurnMeanDownSec = c.ChurnMeanUpSec / 10
	}
	maxFiles := 0
	for _, t := range c.Workload.Tasks {
		if len(t.Files) > maxFiles {
			maxFiles = len(t.Files)
		}
	}
	if c.CapacityFiles < maxFiles {
		return fmt.Errorf("grid: capacity %d files below largest task (%d files); assumption 5 unsatisfiable", c.CapacityFiles, maxFiles)
	}
	return nil
}

// Result is the outcome of one simulated run.
type Result struct {
	Scheduler string             `json:"scheduler"`
	Metrics   *metrics.Collector `json:"metrics"`
	// WallEvents is the number of kernel events executed (simulator load,
	// not simulated time).
	WallEvents uint64 `json:"wallEvents"`
}

// MakespanMinutes returns the makespan in the paper's unit.
func (r *Result) MakespanMinutes() float64 { return r.Metrics.MakespanSec / 60 }

// batchRequest is what a worker sends its site's data server.
type batchRequest struct {
	files    []workload.FileID
	reply    *sim.Signal
	enqueued sim.Time
}

// coreRefForSite is the site-scoped pseudo worker reference used by
// actors that are not a specific worker (data server, replicator).
func coreRefForSite(site int) core.WorkerRef {
	return core.WorkerRef{Site: site, Worker: -1}
}

// emit records a trace event if tracing is enabled.
func (e *engine) emit(at sim.Time, kind trace.Kind, ref core.WorkerRef, task workload.TaskID, files int) {
	if e.cfg.Tracer == nil {
		return
	}
	e.cfg.Tracer.Record(trace.Event{
		At: at, Kind: kind, Site: ref.Site, Worker: ref.Worker, Task: int64(task), Files: files,
	})
}

// spreadSites picks n sites striding across the generation order, which
// walks the WAN/MAN/LAN tree depth-first — so the chosen subset spreads
// over the hierarchy the way the paper's experiments use "a subset of 90
// sites", instead of clustering the whole grid behind one LAN corner.
func spreadSites(all []topology.NodeID, n int) []topology.NodeID {
	out := make([]topology.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// engine holds one run's wiring.
type engine struct {
	cfg   Config
	k     *sim.Kernel
	net   *netsim.Network
	topo  *topology.Topology
	sites []topology.NodeID // participating sites (spread across the topology)
	sched core.Scheduler
	col   *metrics.Collector

	stores []*storage.Store
	queues []*sim.Queue[*batchRequest]

	done        []bool
	remaining   int
	makespan    sim.Time
	everFetched []bool  // per file: fetched anywhere at least once
	fetchCount  []int32 // per file: fetches seen by the external file server

	workers map[core.WorkerRef]*workerState
}

type workerState struct {
	cur       workload.TaskID // -1 when idle
	cancelled bool
	cancelSig *sim.Signal
}

// Run executes one simulation of the workload under the given scheduler.
// The scheduler must be freshly constructed for the run.
func Run(cfg Config, sched core.Scheduler) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	topo, err := topology.GenerateTiers(cfg.Topology)
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	e := &engine{
		cfg:         cfg,
		k:           k,
		net:         netsim.New(k, topo.Graph),
		topo:        topo,
		sites:       spreadSites(topo.Sites, cfg.Sites),
		sched:       sched,
		col:         metrics.NewCollector(cfg.Sites),
		stores:      make([]*storage.Store, cfg.Sites),
		queues:      make([]*sim.Queue[*batchRequest], cfg.Sites),
		done:        make([]bool, len(cfg.Workload.Tasks)),
		remaining:   len(cfg.Workload.Tasks),
		everFetched: make([]bool, cfg.Workload.NumFiles),
		fetchCount:  make([]int32, cfg.Workload.NumFiles),
		workers:     make(map[core.WorkerRef]*workerState),
	}
	for i := 0; i < cfg.Sites; i++ {
		st, err := storage.New(cfg.CapacityFiles, cfg.Policy)
		if err != nil {
			return nil, err
		}
		st.Reserve(cfg.Workload.NumFiles)
		e.stores[i] = st
		e.queues[i] = sim.NewQueue[*batchRequest](k)
		sched.AttachSite(i)
	}

	sampler := top500.NewSampler(cfg.SpeedSeed)
	for site := 0; site < cfg.Sites; site++ {
		site := site
		k.Go(fmt.Sprintf("dataserver-%d", site), func(p *sim.Proc) { e.dataServer(p, site) })
		for wi := 0; wi < cfg.WorkersPerSite; wi++ {
			ref := core.WorkerRef{Site: site, Worker: wi}
			speed := sampler.Sample()
			var churn *rand.Rand
			if cfg.ChurnMeanUpSec > 0 {
				churn = rand.New(rand.NewSource(cfg.SpeedSeed*1_000_003 + int64(site)*1_009 + int64(wi)))
			}
			e.workers[ref] = &workerState{cur: -1}
			k.Go(fmt.Sprintf("worker-%d.%d", site, wi), func(p *sim.Proc) { e.worker(p, ref, speed, churn) })
		}
	}

	if cfg.Replication.Threshold > 0 {
		k.Go("replicator", func(p *sim.Proc) { e.replicator(p) })
	}

	k.Run()
	k.Shutdown() // reap data servers parked on their request queues

	if e.remaining != 0 {
		return nil, fmt.Errorf("grid: simulation ended with %d tasks incomplete", e.remaining)
	}
	e.col.MakespanSec = e.makespan
	return &Result{Scheduler: sched.Name(), Metrics: e.col, WallEvents: k.EventsFired()}, nil
}

// dataServer serves batch requests one at a time (assumption 3): determine
// missing files, fetch them in one bulk flow from the external file server,
// commit the batch to storage, notify the scheduler, release the worker.
func (e *engine) dataServer(p *sim.Proc, site int) {
	sm := &e.col.Sites[site]
	store := e.stores[site]
	// Per-server buffers reused across batches (a data server may block on
	// the network mid-request, so the buffers must not be engine-shared).
	var missBuf, fetchBuf, evictBuf []workload.FileID
	for {
		req := e.queues[site].Recv(p)
		sm.Requests++
		sm.WaitTimeSum += p.Now() - req.enqueued

		missBuf = store.AppendMissing(missBuf[:0], req.files)
		missing := missBuf
		if len(missing) > 0 {
			start := p.Now()
			bytes := float64(len(missing)) * e.cfg.FileSizeBytes
			if err := e.net.Transfer(p, e.topo.FileServer, e.sites[site], bytes); err != nil {
				panic(fmt.Sprintf("grid: transfer to site %d: %v", site, err))
			}
			sm.TransferTimeSum += p.Now() - start
			sm.FileTransfers += int64(len(missing))
			sm.BytesFetched += bytes
			for _, f := range missing {
				e.fetchCount[f]++
				if !e.everFetched[f] {
					e.everFetched[f] = true
					e.col.DistinctFilesFetched++
				}
			}
		}
		var fetched, evicted []workload.FileID
		var err error
		fetched, evicted, err = store.CommitBatchInto(req.files, fetchBuf[:0], evictBuf[:0])
		if err != nil {
			panic(fmt.Sprintf("grid: commit at site %d: %v", site, err))
		}
		fetchBuf, evictBuf = fetched[:0], evicted[:0]
		// A proactive replica push can land one of the missing files while
		// our fetch is in flight, so fetched may be a strict subset of
		// missing; more fetches than misses would be a real bug.
		if len(fetched) > len(missing) {
			panic("grid: more files inserted than were missing at service start")
		}
		sm.Evictions += int64(len(evicted))
		e.sched.NoteBatch(site, req.files, fetched, evicted)
		e.emit(p.Now(), trace.BatchServed, core.WorkerRef{Site: site, Worker: -1}, -1, len(missing))
		req.reply.Fire(nil)
	}
}

// worker runs the pull loop of §4.1: ask the scheduler when idle, stage the
// task's files through the site data server, compute, repeat. Storage
// affinity replicas can be cancelled mid-flight; a cancel during the batch
// wait abandons the task after staging, a cancel during compute interrupts
// the computation. Under churn the worker alternates exponentially
// distributed up/down periods; a failure mid-execution loses the execution
// and the scheduler requeues the task.
func (e *engine) worker(p *sim.Proc, ref core.WorkerRef, speedMflops float64, churn *rand.Rand) {
	ws := e.workers[ref]
	sm := &e.col.Sites[ref.Site]
	nextFail := math.Inf(1)
	if churn != nil {
		nextFail = p.Now() + churn.ExpFloat64()*e.cfg.ChurnMeanUpSec
	}
	// One request/reply pair reused for every batch: the worker blocks
	// until the data server fires the reply, so the previous use is always
	// fully drained before the next.
	reply := sim.NewSignal(e.k)
	req := &batchRequest{reply: reply}
	// Likewise one cancel signal, reset per assignment: cancel fires it at
	// most once per assignment and this worker is its only waiter, so by the
	// next assignment nobody is registered on it.
	ws.cancelSig = sim.NewSignal(e.k)
	for {
		if p.Now() >= nextFail {
			e.emit(p.Now(), trace.WorkerDown, ref, -1, 0)
			p.Sleep(churn.ExpFloat64() * e.cfg.ChurnMeanDownSec)
			nextFail = p.Now() + churn.ExpFloat64()*e.cfg.ChurnMeanUpSec
			e.emit(p.Now(), trace.WorkerUp, ref, -1, 0)
			continue
		}
		task, status := e.sched.NextFor(ref)
		switch status {
		case core.Done:
			return
		case core.Wait:
			p.Sleep(e.cfg.PollIntervalSec)
			continue
		case core.Assigned:
		default:
			panic(fmt.Sprintf("grid: unknown scheduler status %v", status))
		}

		ws.cur = task.ID
		ws.cancelled = false
		ws.cancelSig.Reset()
		sm.TasksExecuted++
		e.emit(p.Now(), trace.TaskAssigned, ref, task.ID, len(task.Files))

		reply.Reset()
		req.files, req.enqueued = task.Files, p.Now()
		e.queues[ref.Site].Push(req)
		e.emit(p.Now(), trace.BatchEnqueued, ref, task.ID, len(task.Files))
		reply.Wait(p)

		if ws.cancelled {
			// Another replica completed while our files were staging.
			e.col.CancelledExecutions++
			e.emit(p.Now(), trace.TaskCancelled, ref, task.ID, 0)
			ws.cur = -1
			continue
		}
		if p.Now() >= nextFail {
			// The worker went down while its files were staging.
			e.failExecution(p.Now(), ref, task.ID)
			continue
		}

		computeSec := float64(len(task.Files)) * e.cfg.PerFileMflop / speedMflops
		e.emit(p.Now(), trace.ComputeStart, ref, task.ID, 0)
		if p.Now()+computeSec >= nextFail {
			// The worker will fail mid-compute (unless cancelled first).
			_, interrupted := ws.cancelSig.WaitTimeout(p, nextFail-p.Now())
			if interrupted {
				e.col.CancelledExecutions++
				e.emit(p.Now(), trace.TaskCancelled, ref, task.ID, 0)
				ws.cur = -1
				continue
			}
			e.failExecution(p.Now(), ref, task.ID)
			continue
		}
		_, interrupted := ws.cancelSig.WaitTimeout(p, computeSec)
		if interrupted {
			e.col.CancelledExecutions++
			e.emit(p.Now(), trace.TaskCancelled, ref, task.ID, 0)
			ws.cur = -1
			continue
		}

		ws.cur = -1
		e.emit(p.Now(), trace.TaskCompleted, ref, task.ID, 0)
		sm.TasksCompleted++
		if !e.done[task.ID] {
			e.done[task.ID] = true
			e.remaining--
			e.col.TasksCompleted++
			if e.remaining == 0 {
				e.makespan = p.Now()
			}
		}
		for _, victim := range e.sched.OnTaskComplete(task.ID, ref) {
			e.cancel(victim, task.ID)
		}
	}
}

// failExecution records a churn-induced execution loss and requeues the
// task with the scheduler (unless a replica already completed it).
func (e *engine) failExecution(at sim.Time, ref core.WorkerRef, id workload.TaskID) {
	e.workers[ref].cur = -1
	e.col.FailedExecutions++
	e.emit(at, trace.TaskFailed, ref, id, 0)
	e.sched.OnExecutionFailed(id, ref)
}

// cancel interrupts the named worker's current execution of task id.
func (e *engine) cancel(ref core.WorkerRef, id workload.TaskID) {
	ws, ok := e.workers[ref]
	if !ok {
		panic(fmt.Sprintf("grid: cancel for unknown worker %+v", ref))
	}
	if ws.cur != id || ws.cancelled {
		return
	}
	ws.cancelled = true
	if !ws.cancelSig.Fired() {
		ws.cancelSig.Fire(nil)
	}
}
