// Package benchsuite holds the single implementation of the repository's
// performance benchmarks. Two consumers run the same bodies: the
// `go test -bench` entry points (bench_test.go at the root,
// internal/service's dispatch benchmarks) that CI smoke-runs, and
// cmd/gridbench, which records the JSON perf trajectory
// (BENCH_PR2.json, …). Keeping one copy means the committed trajectory
// always measures exactly what CI exercises.
//
// Setup errors panic rather than calling testing.B failure methods: the
// same closures must run under testing.Benchmark in a non-test binary
// (gridbench), where a B has no usable logger and b.Fatal crashes
// uninformatively.
package benchsuite

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/middleware"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/sim"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

func must(err error, what string) {
	if err != nil {
		panic(fmt.Sprintf("benchsuite: %s: %v", what, err))
	}
}

// ExperimentOptions is the reduced scale shared by all experiment
// benchmarks (600 tasks, one seed) so a full `go test -bench=.` finishes
// in minutes; paper-scale numbers come from cmd/experiments.
func ExperimentOptions() gridsched.ExperimentOptions {
	return gridsched.ExperimentOptions{Tasks: 600, Seeds: []int64{1}, Parallelism: 4}
}

// Experiment returns a benchmark running one registry artifact per
// iteration at the reduced scale.
func Experiment(id string) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reports, err := gridsched.RunExperiment(id, ExperimentOptions())
			must(err, id)
			if len(reports) == 0 || len(reports[0].Rows) == 0 {
				panic(fmt.Sprintf("benchsuite: %s: empty report", id))
			}
		}
	}
}

// SchedulerRequest returns a benchmark measuring one steady-state dispatch
// cycle of a worker-centric scheduler on the full 6,000-task queue: the
// request (CalculateWeight + ChooseTask, served from the incremental
// weight-class indexes — see PERFORMANCE.md) and the NoteBatch that commits
// the granted task's batch. Every batch is committed with fetched =
// task.Files — each of the task's ~80 files fans out to all its readers —
// so under the combined metrics the figure is mostly NoteBatch's fan-out,
// not the selection: a cheaper chooseTask moves it by the selection's share
// only, and it cannot be brought near overlap's by selection alone. The
// benchmark builds a scheduler per 1,000 requests over one workload, which
// is a sweep's use of core, so like a sweep it asks for the shared index
// first (core.ShareIndex, off the clock).
func SchedulerRequest(algorithm string) func(b *testing.B) {
	return func(b *testing.B) {
		w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000)
		must(err, "workload")
		core.ShareIndex(w)
		cfg := gridsched.SimulationConfig{Workload: w}
		b.ResetTimer()
		i := 0
		for i < b.N {
			b.StopTimer()
			sched, err := gridsched.NewScheduler(algorithm, w, cfg, 1)
			must(err, algorithm)
			sched.AttachSite(0)
			// An empty batch makes the scheduler build the site's index now,
			// off the clock, as AttachSite did before sites were built on
			// first use: the figure is a request against a built index.
			sched.NoteBatch(0, nil, nil, nil)
			b.StartTimer()
			// Drain up to 1000 requests per scheduler instance.
			for j := 0; j < 1000 && i < b.N; j++ {
				task, st := sched.NextFor(core.WorkerRef{Site: 0})
				if st != core.Assigned {
					break
				}
				i++
				sched.NoteBatch(0, task.Files, task.Files, nil)
			}
		}
	}
}

// StorageAffinityDraft measures what the task-centric baseline does before
// it answers its first request: NewStorageAffinity plus the first NextFor,
// which drafts all 6,000 Coadd tasks onto 10 sites against virtual storage
// images of the paper's default capacity.
func StorageAffinityDraft(b *testing.B) {
	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000)
	must(err, "workload")
	cfg := core.StorageAffinityConfig{
		Sites: 10, WorkersPerSite: 1, CapacityFiles: 6000, Policy: storage.LRU, MaxReplicas: 3,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.NewStorageAffinity(w, cfg)
		must(err, "storage affinity")
		for site := 0; site < cfg.Sites; site++ {
			sched.AttachSite(site)
		}
		if _, st := sched.NextFor(core.WorkerRef{}); st != core.Assigned {
			panic(fmt.Sprintf("benchsuite: first request answered %v", st))
		}
	}
}

// SimProcessSwitch measures one process resume of the simulation kernel:
// two processes ping-pong over a pair of queues, so each op is one wake
// event fired, one switch into the woken process, its Push and Recv, and
// the switch back when it parks. It allocates nothing.
func SimProcessSwitch(b *testing.B) {
	k := sim.NewKernel()
	ping, pong := sim.NewQueue[struct{}](k), sim.NewQueue[struct{}](k)
	rounds := b.N/2 + 1
	k.Go("ping", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Push(struct{}{})
			pong.Recv(p)
		}
	})
	k.Go("pong", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Recv(p)
			pong.Push(struct{}{})
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// EndToEndSimulation measures a complete 600-task, 4-site run under
// combined.2 (scheduling + storage + network + kernel).
func EndToEndSimulation(b *testing.B) {
	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 600)
	must(err, "workload")
	cfg := gridsched.SimulationConfig{Workload: w, Sites: 4, CapacityFiles: 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := gridsched.RunSimulation(cfg, "combined.2")
		must(err, "simulation")
	}
}

// WorkloadGeneration measures synthetic Coadd trace generation at
// evaluation scale.
func WorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000)
		must(err, "workload")
	}
}

// NewDispatchService builds the service the dispatch benchmarks run
// against. Close it when done.
func NewDispatchService() *service.Service {
	svc, err := service.New(service.Config{
		Topology:     service.Topology{Sites: 4, WorkersPerSite: 4, CapacityFiles: 1024},
		NewScheduler: gridsched.SchedulerFactory(),
	})
	must(err, "service")
	return svc
}

// NewJournaledDispatchService is NewDispatchService with the write-ahead
// journal enabled at the given fsync mode, over a throwaway data dir
// (remove it after Close). Snapshots are pushed out of the measurement
// window: they are a compaction cost with their own cadence knob, and
// PERFORMANCE.md tracks the per-dispatch journal overhead.
func NewJournaledDispatchService(mode journal.Mode) (*service.Service, string) {
	dir, err := os.MkdirTemp("", "gridsched-bench-journal-*")
	must(err, "journal dir")
	svc, err := service.New(service.Config{
		Topology:      service.Topology{Sites: 4, WorkersPerSite: 4, CapacityFiles: 1024},
		NewScheduler:  gridsched.SchedulerFactory(),
		DataDir:       dir,
		Fsync:         mode,
		SnapshotEvery: 1 << 30,
	})
	must(err, "journaled service")
	return svc, dir
}

// ServiceDispatchJournaled measures the dispatch round-trip with the
// write-ahead journal on — the number the "within 2x of the in-memory
// path" acceptance bar reads.
func ServiceDispatchJournaled(mode journal.Mode) func(b *testing.B) {
	return func(b *testing.B) {
		svc, dir := NewJournaledDispatchService(mode)
		defer os.RemoveAll(dir)
		defer svc.Close()
		DispatchRoundTrip(b, client.InProcess(svc.Handler()))
	}
}

// ServiceSnapshotPause measures one compacting checkpoint with `jobs`
// half-drained 6,000-task Coadd jobs resident — ROADMAP's "snapshot pause
// vs resident jobs". Each iteration is one pull + report followed by the
// checkpoint they trigger (SnapshotEvery is 2). ns/op is the whole
// checkpoint as the triggering request sees it; the two reported metrics
// are what every other request sees and what the disk sees:
//
//	pause-ms/op     mean lockAll→unlockAll stop-the-world span
//	snapshot-B/op   bytes the checkpoint wrote
//
// Resident workload bytes grow 16x from jobs=1 to jobs=16; neither metric
// may follow them — both track the ledgers (~21 B per dispatch or report
// since submit), the only per-job state a checkpoint rewrites.
func ServiceSnapshotPause(jobs int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := halfDrainedDataDir(jobs)
		defer os.RemoveAll(cfg.DataDir)
		cfg.SnapshotEvery = 2 // one checkpoint due every iteration
		svc, err := service.New(cfg)
		must(err, "reopen")
		defer svc.Close()
		reg, err := svc.Register(0)
		must(err, "register")

		c := svc.Counters()
		snaps0, pause0 := c.Snapshots.Load(), c.SnapshotPauseTotalNanos.Load()
		var written int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pullAndReport(svc, reg.WorkerID)
			written += c.SnapshotBytes.Load()
		}
		b.StopTimer()
		if got := c.Snapshots.Load() - snaps0; got != int64(b.N) {
			panic(fmt.Sprintf("benchsuite: %d checkpoints over %d iterations", got, b.N))
		}
		b.ReportMetric(float64(c.SnapshotPauseTotalNanos.Load()-pause0)/1e6/float64(b.N), "pause-ms/op")
		b.ReportMetric(float64(written)/float64(b.N), "snapshot-B/op")
	}
}

// ServiceRecovery measures one recovery — service.New over a data dir —
// with `jobs` half-drained 6,000-task Coadd jobs resident: ROADMAP's
// "recovery replay rate". The dir was closed cleanly, so all 6,000 events of
// each job (3,000 dispatches, 3,000 reports) are in the checkpoint's ledgers
// and the recovery is all restore: per job, decode the workload, rebuild
// the scheduler, replay the ledger. ns/op is New as a caller sees it; the
// two reported metrics are recovery's own account of itself:
//
//	recover-ms/op   mean gridsched_replay_seconds
//	events/s        ledger events replayed per second of it
//
// Running jobs restore side by side, so from jobs=1 to jobs=16 recover-ms
// should grow with jobs ÷ cores, not with jobs.
func ServiceRecovery(jobs int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := halfDrainedDataDir(jobs)
		defer os.RemoveAll(cfg.DataDir)
		var nanos, events int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc, err := service.New(cfg)
			must(err, "recover")
			b.StopTimer()
			c := svc.Counters()
			nanos += c.ReplayNanos.Load()
			events += c.ReplayRecords.Load()
			// Close checkpoints the state it recovered, ledgers and all: the
			// next iteration recovers the same thing.
			svc.Close()
			b.StartTimer()
		}
		b.StopTimer()
		if events != int64(b.N)*int64(jobs)*6000 {
			panic(fmt.Sprintf("benchsuite: %d events replayed over %d recoveries of %d jobs", events, b.N, jobs))
		}
		b.ReportMetric(float64(nanos)/1e6/float64(b.N), "recover-ms/op")
		b.ReportMetric(float64(events)/(float64(nanos)/1e9), "events/s")
	}
}

// halfDrainedDataDir builds a throwaway data dir holding `jobs` 6,000-task
// Coadd jobs under combined.2, each with half its tasks completed and none
// in flight, closed cleanly — so one checkpoint holds everything and the
// journal is empty. It returns the config to reopen the dir with, automatic
// checkpoints out of reach; remove cfg.DataDir when done.
func halfDrainedDataDir(jobs int) service.Config {
	dir, err := os.MkdirTemp("", "gridsched-bench-resident-*")
	must(err, "data dir")
	cfg := service.Config{
		Topology:      service.Topology{Sites: 4, WorkersPerSite: 4, CapacityFiles: 6000},
		NewScheduler:  gridsched.SchedulerFactory(),
		DataDir:       dir,
		Fsync:         journal.SyncBatch,
		SnapshotEvery: 1 << 30,
	}
	svc, err := service.New(cfg)
	must(err, "service")
	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000)
	must(err, "workload")
	for i := 0; i < jobs; i++ {
		_, err := svc.SubmitJob(api.SubmitJobRequest{
			Name: fmt.Sprintf("coadd-%d", i), Algorithm: "combined.2", Workload: w, Seed: int64(i),
		})
		must(err, "submit")
	}
	reg, err := svc.Register(0)
	must(err, "register")
	for i := 0; i < jobs*3000; i++ {
		pullAndReport(svc, reg.WorkerID)
	}
	svc.Close()
	return cfg
}

// pullAndReport completes one task as workerID.
func pullAndReport(svc *service.Service, workerID string) {
	resp, err := svc.Pull(nil, workerID, 0)
	must(err, "pull")
	if resp.Status != api.StatusAssigned {
		panic("benchsuite: resident jobs drained; lower -benchtime")
	}
	_, err = svc.Report(resp.Assignment.ID, workerID, api.OutcomeSuccess)
	must(err, "report")
}

// dispatchWorkload: one file per task so staging cost is constant and the
// benchmark isolates the service dispatch path, not the cache.
func dispatchWorkload(tasks int) *workload.Workload {
	w := &workload.Workload{Name: "bench", NumFiles: 512}
	for i := 0; i < tasks; i++ {
		w.Tasks = append(w.Tasks, workload.Task{
			ID:    workload.TaskID(i),
			Files: []workload.FileID{workload.FileID(i % 512)},
		})
	}
	return w
}

// DispatchRoundTrip measures the pull→assign→report round-trip through
// the full HTTP/JSON protocol against the given client.
func DispatchRoundTrip(b *testing.B, cl *client.Client) {
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	must(err, "register")
	submit := func() {
		w := dispatchWorkload(100_000)
		_, err := cl.SubmitJob(ctx, "bench", "workqueue", 0, w)
		must(err, "submit")
	}
	submit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Pull(ctx, reg.WorkerID, 0)
		must(err, "pull")
		if resp.Status != api.StatusAssigned {
			// Job drained mid-benchmark; refill outside the hot path's
			// accounting concerns (rare: every 100k iterations).
			submit()
			continue
		}
		_, err = cl.Report(ctx, resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess)
		must(err, "report")
	}
}

// ServiceDispatchInProcess is DispatchRoundTrip over the in-process
// transport: protocol + JSON codec + scheduler, no sockets.
func ServiceDispatchInProcess(b *testing.B) {
	svc := NewDispatchService()
	defer svc.Close()
	DispatchRoundTrip(b, client.InProcess(svc.Handler()))
}

// ServiceDispatchIngress is ServiceDispatchInProcess with the full
// production middleware chain in front of the mux — trace IDs, panic
// recovery, bearer auth, a permissive rate limiter, and a shedder whose
// bound is never breached — so the delta against ServiceDispatchInProcess
// is the chain's no-shed overhead. The PR 6 acceptance bar holds it to
// ≤5% of the bare-mux dispatch round-trip.
func ServiceDispatchIngress(b *testing.B) {
	svc := NewDispatchService()
	defer svc.Close()
	chain := middleware.Ingress(middleware.Config{
		Log: io.Discard,
		Tokens: middleware.NewTokenStore(map[string]middleware.Principal{
			"bench-token": {Tenant: "bench"},
		}),
		RateLimit:    1e9, // generous: the limiter runs, nothing throttles
		ShedP99:      time.Hour,
		TenantWeight: svc.TenantWeight,
	}, svc.Handler())
	cl := client.InProcess(chain)
	cl.AuthToken = "bench-token"
	DispatchRoundTrip(b, cl)
}

// ServiceDispatchContended measures the dispatch round-trip with six
// tenant-weighted jobs resident at once: every pull runs the fair-share
// arbiter (heap pop, quota check, charge, reinsert — see
// internal/service/arbiter.go) across a contended job set instead of
// PR 1's first-job scan. Compare against ServiceDispatchInProcess for the
// arbitration overhead.
func ServiceDispatchContended(b *testing.B) {
	svc := NewDispatchService()
	defer svc.Close()
	cl := client.InProcess(svc.Handler())
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	must(err, "register")
	tenants := []struct {
		name   string
		weight int
	}{{"alpha", 3}, {"beta", 2}, {"gamma", 1}}
	submit := func() {
		for _, t := range tenants {
			for k := 0; k < 2; k++ {
				w := dispatchWorkload(50_000)
				_, err := cl.SubmitTenantJob(ctx, t.name, t.weight,
					fmt.Sprintf("bench-%s-%d", t.name, k), "workqueue", 0, w)
				must(err, "submit "+t.name)
			}
		}
	}
	submit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Pull(ctx, reg.WorkerID, 0)
		must(err, "pull")
		if resp.Status != api.StatusAssigned {
			// All six jobs drained mid-benchmark; refill (rare: every 300k
			// iterations).
			submit()
			continue
		}
		_, err = cl.Report(ctx, resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess)
		must(err, "report")
	}
}

// ServiceDispatchSpeculative measures one full straggler-mitigation
// cycle on the dispatch path: a sweep that flags a straggling lease, the
// speculative twin's grant, the twin's winning report, and the beaten
// primary's cancelled report plus its next pull. The service runs a
// virtual clock the loop advances 20ms per iteration — far past the
// primed 2x-p95 threshold — so every iteration exercises the staging
// scan, the twin grant (which bypasses NextFor), and first-report-wins.
// Drives the Service API directly (no transport codec), like
// ServiceDispatchParallel: the number isolates the mitigation machinery,
// not the wire.
func ServiceDispatchSpeculative(b *testing.B) {
	var ms atomic.Int64
	base := time.Unix(1_700_000_000, 0)
	svc, err := service.New(service.Config{
		Topology:      service.Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 1024},
		NewScheduler:  gridsched.SchedulerFactory(),
		LeaseTTL:      time.Minute,
		SweepInterval: time.Millisecond,
		Clock:         func() time.Time { return base.Add(time.Duration(ms.Load()) * time.Millisecond) },
		Speculation:   true,
	})
	must(err, "service")
	defer svc.Close()

	submit := func() {
		_, err := svc.SubmitJob(api.SubmitJobRequest{
			Name: "bench-spec", Algorithm: "workqueue", Workload: dispatchWorkload(100_000),
		})
		must(err, "submit")
	}
	submit()
	slow, err := svc.Register(0)
	must(err, "register slow")
	fast, err := svc.Register(1)
	must(err, "register fast")

	// Prime the job's duration distribution: three 5ms completions set a
	// 10ms speculation threshold, so a lease aged one 20ms step straggles.
	for i := 0; i < 3; i++ {
		resp, err := svc.Pull(nil, fast.WorkerID, 0)
		must(err, "prime pull")
		if resp.Status != api.StatusAssigned {
			panic("benchsuite: prime pull got no assignment")
		}
		ms.Add(5)
		_, err = svc.Report(resp.Assignment.ID, fast.WorkerID, api.OutcomeSuccess)
		must(err, "prime report")
	}
	resp, err := svc.Pull(nil, slow.WorkerID, 0)
	must(err, "straggler pull")
	if resp.Status != api.StatusAssigned {
		panic("benchsuite: no straggler lease")
	}
	hold := resp.Assignment.ID

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Add(20)
		// The sweep at pull entry stages the straggler; the pull grants
		// its speculative twin.
		resp, err := svc.Pull(nil, fast.WorkerID, 0)
		must(err, "pull")
		if resp.Status != api.StatusAssigned {
			// Job drained mid-benchmark; refill outside the hot path's
			// accounting concerns (rare: every ~100k iterations).
			submit()
			continue
		}
		_, err = svc.Report(resp.Assignment.ID, fast.WorkerID, api.OutcomeSuccess)
		must(err, "twin report")
		// The beaten primary reports in (cancelled, never a second
		// completion) and takes a fresh task — the next straggler.
		_, err = svc.Report(hold, slow.WorkerID, api.OutcomeSuccess)
		must(err, "primary report")
		next, err := svc.Pull(nil, slow.WorkerID, 0)
		must(err, "straggler pull")
		if next.Status != api.StatusAssigned {
			// The twin+primary reports just drained the job's last task —
			// the same ~100k-iteration boundary as the fast path above,
			// landing on this pull instead. Refill and retry.
			submit()
			next, err = svc.Pull(nil, slow.WorkerID, 0)
			must(err, "straggler pull")
			if next.Status != api.StatusAssigned {
				panic("benchsuite: straggler starved")
			}
		}
		hold = next.Assignment.ID
	}
}

// ParallelWorkers and ParallelJobs fix the scale of the multi-core
// dispatch benchmark: 8 concurrent workers drawing from 8 resident jobs,
// the ISSUE-5 acceptance configuration.
const (
	ParallelWorkers = 8
	ParallelJobs    = 8
)

// ServiceDispatchParallel measures aggregate dispatch throughput with
// ParallelWorkers workers pulling and reporting concurrently against
// ParallelJobs resident worker-centric jobs, driving the Service API
// directly (no HTTP codec, so the number isolates the dispatch core, not
// the transport). The shards parameter sets the lock-stripe count:
// shards=1 approximates the old single-mutex service (every job behind
// one stripe), larger counts let jobs' scheduler work proceed in
// parallel. Compare shards=1 against shards=8 on a multi-core runner for
// the scaling headline; on a single-core machine the two should be within
// noise, which bounds the refactor's overhead.
func ServiceDispatchParallel(shards int) func(b *testing.B) {
	return func(b *testing.B) {
		svc, err := service.New(service.Config{
			Topology:     service.Topology{Sites: ParallelWorkers, WorkersPerSite: 1, CapacityFiles: 1024},
			NewScheduler: gridsched.SchedulerFactory(),
			Shards:       shards,
		})
		must(err, "service")
		defer svc.Close()

		var submitMu sync.Mutex
		batch := 0
		submit := func() {
			submitMu.Lock()
			defer submitMu.Unlock()
			if svc.Counters().OpenJobs.Load() > int64(ParallelJobs/2) {
				return // another worker already refilled
			}
			for k := 0; k < ParallelJobs; k++ {
				_, err := svc.SubmitJob(api.SubmitJobRequest{
					Name: fmt.Sprintf("par-%d-%d", batch, k), Algorithm: "rest",
					Workload: dispatchWorkload(50_000), Seed: int64(k),
				})
				must(err, "submit")
			}
			batch++
		}
		submit()
		regs := make([]string, ParallelWorkers)
		for i := range regs {
			reg, err := svc.Register(i)
			must(err, "register")
			regs[i] = reg.WorkerID
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		for i := 0; i < ParallelWorkers; i++ {
			n := b.N / ParallelWorkers
			if i < b.N%ParallelWorkers {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(workerID string, n int) {
				defer wg.Done()
				for done := 0; done < n; {
					resp, err := svc.Pull(nil, workerID, 0)
					must(err, "pull")
					if resp.Status != api.StatusAssigned {
						// Jobs drained mid-benchmark (rare: every 400k
						// dispatches); refill outside the counted work.
						submit()
						continue
					}
					_, err = svc.Report(resp.Assignment.ID, workerID, api.OutcomeSuccess)
					must(err, "report")
					done++
				}
			}(regs[i], n)
		}
		wg.Wait()
	}
}

// ServiceDispatchPartitioned measures aggregate durable dispatch
// throughput across parts independent gridschedd partitions, each a
// journaled SyncAlways service behind its own real TCP socket — the
// horizontal scale-out configuration of docs/PARTITIONING.md with the
// router bypassed (each worker talks to its partition directly, so the
// steady-state data path has no extra hop to measure).
// One streaming binary-codec worker per partition: every granted lease
// frame and every report batch costs one fsync on that partition's WAL,
// which is the durable dispatch bottleneck partitioning multiplies.
// Each iteration is one completed task, aggregated across partitions,
// so dispatches/sec here scales with how well the independent WAL
// fsyncs overlap — parts=2 read against parts=1 (a single-core host
// still overlaps the fsync I/O waits, just less — PERFORMANCE.md records
// what each recorded run's host could show, with NumCPU in the JSON; the
// ≥1.7× multi-core claim is unmeasured on those hosts and ungated).
//
// PartitionedBatch and PartitionedWorkers fix the per-partition scale:
// one streaming worker at WireBatch pipeline depth keeps each
// partition's serial chain honest — its CPU work and its WAL fsyncs
// interleave, the shape one steady worker presents — without letting a
// single partition saturate the host by itself, which would flatten
// the curve the benchmark exists to show.
const (
	PartitionedBatch   = 32
	PartitionedWorkers = 1
)

func ServiceDispatchPartitioned(parts int) func(b *testing.B) {
	return func(b *testing.B) {
		ctx := context.Background()
		type streamWorker struct {
			cl   *client.Client
			part int
			wid  string
			ls   *client.LeaseStream
		}
		var workers []*streamWorker
		for i := 0; i < parts; i++ {
			dir, err := os.MkdirTemp("", "gridsched-bench-part-*")
			must(err, "partition dir")
			defer os.RemoveAll(dir)
			svc, err := service.New(service.Config{
				Topology:       service.Topology{Sites: PartitionedWorkers, WorkersPerSite: 1, CapacityFiles: 1024},
				NewScheduler:   gridsched.SchedulerFactory(),
				DataDir:        dir,
				Fsync:          journal.SyncAlways,
				SnapshotEvery:  1 << 30,
				PartitionIndex: i,
				PartitionCount: parts,
			})
			must(err, "partitioned service")
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			cl := client.New(ts.URL, nil)
			must(cl.SetCodec("binary"), "codec")
			// Keyless: a partition refuses a submission key that hashes to another.
			_, err = cl.SubmitJobIdempotent(ctx, api.SubmitJobRequest{
				Name: fmt.Sprintf("bench-part-%d", i), Algorithm: "workqueue", Workload: dispatchWorkload(100_000),
			})
			must(err, "submit")
			for w := 0; w < PartitionedWorkers; w++ {
				reg, err := cl.Register(ctx, nil)
				must(err, "register")
				ls, err := cl.StreamLeases(ctx, reg.WorkerID, PartitionedBatch)
				must(err, "stream")
				defer ls.Close()
				workers = append(workers, &streamWorker{cl: cl, part: i, wid: reg.WorkerID, ls: ls})
			}
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		for i, w := range workers {
			n := b.N / len(workers)
			if i < b.N%len(workers) {
				n++
			}
			if n == 0 {
				continue
			}
			wg.Add(1)
			go func(w *streamWorker, n int) {
				defer wg.Done()
				items := make([]api.ReportItem, 0, PartitionedBatch)
				for done := 0; done < n; {
					lb, err := w.ls.Next()
					must(err, "partitioned stream next")
					if len(lb.Assignments) == 0 {
						if lb.OpenJobs == 0 {
							// This partition's job drained mid-benchmark;
							// refill (rare: every 100k tasks per partition).
							_, err := w.cl.SubmitJob(ctx, fmt.Sprintf("bench-part-%d", w.part), "workqueue", 0, dispatchWorkload(100_000))
							must(err, "refill submit")
						}
						continue // keepalive frame
					}
					items = items[:0]
					for k := range lb.Assignments {
						items = append(items, api.ReportItem{AssignmentID: lb.Assignments[k].ID, Outcome: api.OutcomeSuccess})
					}
					res, err := w.cl.ReportBatch(ctx, w.wid, items)
					must(err, "partitioned report batch")
					for k := range res {
						if !res[k].Accepted {
							panic("benchsuite: partitioned report rejected (lease lapsed mid-benchmark?)")
						}
					}
					done += len(items)
				}
			}(w, n)
		}
		wg.Wait()
	}
}

// WireBatch is the streaming pipeline depth of the wire benchmark — the
// batch size the HTTP and codec costs amortize across.
const WireBatch = 32

// ServiceDispatchWireJSON measures the classic protocol over a real TCP
// socket: one JSON long-poll pull plus one JSON report per task, two full
// HTTP round trips each. This is the baseline ServiceDispatchWireStream
// is read against.
func ServiceDispatchWireJSON(b *testing.B) {
	svc := NewDispatchService()
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	DispatchRoundTrip(b, client.New(ts.URL, nil))
}

// ServiceDispatchWireStream measures the wire-speed path over the same
// kind of TCP socket: one persistent lease stream pushing assignment
// batches, outcomes returned through batched reports, binary codec on
// every payload. Each iteration is still one completed task — the ISSUE-8
// acceptance bar reads this against ServiceDispatchWireJSON (≥3× the
// throughput, ≥5× fewer allocs/op).
func ServiceDispatchWireStream(b *testing.B) {
	svc := NewDispatchService()
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := client.New(ts.URL, nil)
	must(cl.SetCodec("binary"), "codec")
	ctx := context.Background()
	reg, err := cl.Register(ctx, nil)
	must(err, "register")
	submit := func() {
		w := dispatchWorkload(100_000)
		_, err := cl.SubmitJob(ctx, "bench", "workqueue", 0, w)
		must(err, "submit")
	}
	submit()
	ls, err := cl.StreamLeases(ctx, reg.WorkerID, WireBatch)
	must(err, "stream")
	defer ls.Close()
	items := make([]api.ReportItem, 0, WireBatch)
	b.ResetTimer()
	for done := 0; done < b.N; {
		lb, err := ls.Next()
		must(err, "stream next")
		if len(lb.Assignments) == 0 {
			if lb.OpenJobs == 0 {
				// Job drained mid-benchmark; refill outside the hot path's
				// accounting concerns (rare: every 100k tasks).
				submit()
			}
			continue // keepalive frame
		}
		items = items[:0]
		for i := range lb.Assignments {
			items = append(items, api.ReportItem{AssignmentID: lb.Assignments[i].ID, Outcome: api.OutcomeSuccess})
		}
		res, err := cl.ReportBatch(ctx, reg.WorkerID, items)
		must(err, "report batch")
		for i := range res {
			if !res[i].Accepted {
				panic("benchsuite: wire-stream report rejected (lease lapsed mid-benchmark?)")
			}
		}
		done += len(items)
	}
}
