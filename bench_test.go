// Benchmarks regenerating every table and figure of the paper at reduced
// scale (600 tasks, one topology seed) so `go test -bench=.` finishes in
// minutes. Paper-scale numbers come from `cmd/experiments` (6,000 tasks,
// 5 seeds).
//
// `go run ./cmd/gridbench <rev>` compares these benchmarks, and
// internal/service's, between two commits.
package gridsched_test

import (
	"fmt"
	"os"
	"testing"

	"gridsched"
	"gridsched/internal/core"
	"gridsched/internal/journal"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/sim"
	"gridsched/internal/storage"
)

// experiment returns a benchmark running one registry artifact per
// iteration at the reduced scale: 600 tasks, one seed.
func experiment(id string) func(b *testing.B) {
	return func(b *testing.B) {
		opts := gridsched.ExperimentOptions{Tasks: 600, Seeds: []int64{1}, Parallelism: 4}
		for i := 0; i < b.N; i++ {
			reports, err := gridsched.RunExperiment(id, opts)
			if err != nil {
				b.Fatalf("%s: %v", id, err)
			}
			if len(reports) == 0 || len(reports[0].Rows) == 0 {
				b.Fatalf("%s: empty report", id)
			}
		}
	}
}

// experimentFullScale returns a benchmark running an artifact at full
// 6,000-task scale (workload generation only; no simulation).
func experimentFullScale(id string) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gridsched.RunExperiment(id, gridsched.ExperimentOptions{Tasks: 6000, Seeds: []int64{1}}); err != nil {
				b.Fatalf("%s: %v", id, err)
			}
		}
	}
}

// BenchmarkTable2 regenerates the workload characteristics (paper Table 2)
// at full 6,000-task scale (workload generation only; no simulation).
func BenchmarkTable2(b *testing.B) { experimentFullScale("table2")(b) }

// BenchmarkFigure1 regenerates the full-Coadd reference CDF (paper Fig. 1).
func BenchmarkFigure1(b *testing.B) { experiment("figure1")(b) }

// BenchmarkFigure3 regenerates the Coadd-6000 reference CDF (paper Fig. 3)
// at full scale (workload generation only).
func BenchmarkFigure3(b *testing.B) { experimentFullScale("figure3")(b) }

// BenchmarkFigure4 regenerates the makespan-vs-capacity sweep (paper
// Fig. 4; the sweep also yields Fig. 5).
func BenchmarkFigure4(b *testing.B) { experiment("figure4")(b) }

// BenchmarkFigure5 regenerates the transfers-vs-capacity sweep (paper
// Fig. 5).
func BenchmarkFigure5(b *testing.B) { experiment("figure5")(b) }

// BenchmarkFigure6 regenerates the makespan-vs-workers sweep (paper
// Fig. 6; the sweep also yields Table 3).
func BenchmarkFigure6(b *testing.B) { experiment("figure6")(b) }

// BenchmarkTable3 regenerates the per-site data-server breakdown (paper
// Table 3).
func BenchmarkTable3(b *testing.B) { experiment("table3")(b) }

// BenchmarkFigure7 regenerates the makespan-vs-sites sweep (paper Fig. 7).
func BenchmarkFigure7(b *testing.B) { experiment("figure7")(b) }

// BenchmarkFigure8 regenerates the makespan-vs-file-size sweep (paper
// Fig. 8).
func BenchmarkFigure8(b *testing.B) { experiment("figure8")(b) }

// BenchmarkAblationCombined compares the Combined formula as intended vs.
// as typeset (README, "combined-literal").
func BenchmarkAblationCombined(b *testing.B) { experiment("ablation-combined")(b) }

// BenchmarkAblationChooseTask sweeps the ChooseTask(n) window (§4.3).
func BenchmarkAblationChooseTask(b *testing.B) { experiment("ablation-choosetask")(b) }

// BenchmarkAblationEviction compares LRU vs FIFO replacement at the
// tightest paper capacity.
func BenchmarkAblationEviction(b *testing.B) { experiment("ablation-eviction")(b) }

// BenchmarkAblationChurn sweeps worker availability with failure injection
// (the overloaded suppliers motivating worker-centric scheduling, §1).
func BenchmarkAblationChurn(b *testing.B) { experiment("ablation-churn")(b) }

// BenchmarkAblationReplication toggles Ranganathan-Foster proactive data
// replication under tight capacity (§3.1).
func BenchmarkAblationReplication(b *testing.B) { experiment("ablation-replication")(b) }

// --- micro-benchmarks of the core scheduling path ---

// BenchmarkSchedulerRequest measures one steady-state dispatch cycle of a
// worker-centric scheduler on the full 6,000-task queue: the request
// (CalculateWeight + ChooseTask, served from the incremental weight-class
// indexes — see PERFORMANCE.md) and the NoteBatch that commits the granted
// task's batch. Every batch is committed with fetched = task.Files — each
// of the task's ~80 files fans out to all its readers — so under the
// combined metrics the figure is mostly NoteBatch's fan-out, not the
// selection: a cheaper chooseTask moves it by the selection's share only,
// and it cannot be brought near overlap's by selection alone. The
// benchmark builds a scheduler per 1,000 requests over one workload, which
// is a sweep's use of core, so like a sweep it asks for the shared index
// first (core.ShareIndex, off the clock).
func BenchmarkSchedulerRequest(b *testing.B) {
	for _, algorithm := range []string{"overlap", "rest", "combined", "combined.2"} {
		b.Run(algorithm, func(b *testing.B) {
			w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000)
			if err != nil {
				b.Fatal(err)
			}
			core.ShareIndex(w)
			cfg := gridsched.SimulationConfig{Workload: w}
			b.ResetTimer()
			i := 0
			for i < b.N {
				b.StopTimer()
				sched, err := gridsched.NewScheduler(algorithm, w, cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				sched.AttachSite(0)
				// An empty batch makes the scheduler build the site's index
				// now, off the clock, as AttachSite did before sites were
				// built on first use: the figure is a request against a
				// built index.
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
		})
	}
}

// BenchmarkStorageAffinityDraft measures what the task-centric baseline
// does before it answers its first request: NewStorageAffinity plus the
// first NextFor, which drafts all 6,000 Coadd tasks onto 10 sites against
// virtual storage images of the paper's default capacity.
func BenchmarkStorageAffinityDraft(b *testing.B) {
	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.StorageAffinityConfig{
		Sites: 10, WorkersPerSite: 1, CapacityFiles: 6000, Policy: storage.LRU, MaxReplicas: 3,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := core.NewStorageAffinity(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for site := 0; site < cfg.Sites; site++ {
			sched.AttachSite(site)
		}
		if _, st := sched.NextFor(core.WorkerRef{}); st != core.Assigned {
			b.Fatalf("first request answered %v", st)
		}
	}
}

// BenchmarkSimProcessSwitch measures one process resume of the simulation
// kernel: two processes ping-pong over a pair of queues, so each op is one
// wake event fired, one switch into the woken process, its Push and Recv,
// and the switch back when it parks. It allocates nothing.
func BenchmarkSimProcessSwitch(b *testing.B) {
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

// BenchmarkWorkloadGeneration measures synthetic Coadd trace generation at
// evaluation scale.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSimulation measures a complete 600-task, 4-site run
// under combined.2 (scheduling + storage + network + kernel).
func BenchmarkEndToEndSimulation(b *testing.B) {
	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 600)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gridsched.SimulationConfig{Workload: w, Sites: 4, CapacityFiles: 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gridsched.RunSimulation(cfg, "combined.2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSnapshotPause measures one compacting checkpoint with 1,
// 4, and 16 half-drained 6,000-task Coadd jobs resident (PERFORMANCE.md,
// "checkpoints that cost what changed"). Each iteration is one pull + report followed by the checkpoint
// they trigger (SnapshotEvery is 2). ns/op is the whole checkpoint as the
// triggering request sees it; the two reported metrics are what every
// other request sees and what the disk sees:
//
//	pause-ms/op     mean stop-the-world span (the service lock held)
//	snapshot-B/op   bytes the checkpoint wrote
//
// Resident workload bytes grow 16x from jobs=1 to jobs=16; neither metric
// may follow them — both track the ledgers (~21 B per dispatch or report
// since submit), the only per-job state a checkpoint rewrites.
func BenchmarkServiceSnapshotPause(b *testing.B) {
	for _, jobs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			cfg := halfDrainedDataDir(b, jobs)
			cfg.SnapshotEvery = 2 // one checkpoint due every iteration
			svc, err := service.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			reg, err := svc.Register(0)
			if err != nil {
				b.Fatal(err)
			}

			c := svc.Counters()
			snaps0, pause0 := c.Snapshots.Load(), c.SnapshotPauseTotalNanos.Load()
			var written int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pullAndReport(b, svc, reg.WorkerID)
				written += c.SnapshotBytes.Load()
			}
			b.StopTimer()
			if got := c.Snapshots.Load() - snaps0; got != int64(b.N) {
				b.Fatalf("%d checkpoints over %d iterations", got, b.N)
			}
			b.ReportMetric(float64(c.SnapshotPauseTotalNanos.Load()-pause0)/1e6/float64(b.N), "pause-ms/op")
			b.ReportMetric(float64(written)/float64(b.N), "snapshot-B/op")
		})
	}
}

// BenchmarkServiceRecovery measures one recovery — service.New over a data
// dir — with 1, 4, and 16 half-drained 6,000-task Coadd jobs resident
// (PERFORMANCE.md, "recovery on every core"). The dir was closed cleanly, so all 6,000 events
// of each job (3,000 dispatches, 3,000 reports) are in the checkpoint's
// ledgers and the recovery is all restore: per job, decode the workload,
// rebuild the scheduler, replay the ledger. ns/op is New as a caller sees
// it; the two reported metrics are recovery's own account of itself:
//
//	recover-ms/op   mean gridsched_replay_seconds
//	events/s        ledger events replayed per second of it
//
// Running jobs restore side by side, so from jobs=1 to jobs=16 recover-ms
// should grow with jobs ÷ cores, not with jobs.
func BenchmarkServiceRecovery(b *testing.B) {
	for _, jobs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			cfg := halfDrainedDataDir(b, jobs)
			var nanos, events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc, err := service.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c := svc.Counters()
				nanos += c.ReplayNanos.Load()
				events += c.ReplayRecords.Load()
				// Close checkpoints the state it recovered, ledgers and
				// all: the next iteration recovers the same thing.
				svc.Close()
				b.StartTimer()
			}
			b.StopTimer()
			if events != int64(b.N)*int64(jobs)*6000 {
				b.Fatalf("%d events replayed over %d recoveries of %d jobs", events, b.N, jobs)
			}
			b.ReportMetric(float64(nanos)/1e6/float64(b.N), "recover-ms/op")
			b.ReportMetric(float64(events)/(float64(nanos)/1e9), "events/s")
		})
	}
}

// halfDrainedDataDir builds a throwaway data dir holding `jobs` 6,000-task
// Coadd jobs under combined.2, each with half its tasks completed and none
// in flight, closed cleanly — so one checkpoint holds everything and the
// journal is empty. It returns the config to reopen the dir with, automatic
// checkpoints out of reach.
func halfDrainedDataDir(b *testing.B, jobs int) service.Config {
	dir, err := os.MkdirTemp("", "gridsched-bench-resident-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	cfg := service.Config{
		Topology:      service.Topology{Sites: 4, WorkersPerSite: 4, CapacityFiles: 6000},
		NewScheduler:  gridsched.SchedulerFactory(),
		DataDir:       dir,
		Fsync:         journal.SyncBatch,
		SnapshotEvery: 1 << 30,
	}
	svc, err := service.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	w, err := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 6000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		_, err := svc.SubmitJob(api.SubmitJobRequest{
			Name: fmt.Sprintf("coadd-%d", i), Algorithm: "combined.2", Workload: w, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	reg, err := svc.Register(0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < jobs*3000; i++ {
		pullAndReport(b, svc, reg.WorkerID)
	}
	return cfg
}

// pullAndReport completes one task as workerID.
func pullAndReport(b *testing.B, svc *service.Service, workerID string) {
	resp, err := svc.Pull(nil, workerID, 0)
	if err != nil {
		b.Fatal(err)
	}
	if resp.Status != api.StatusAssigned {
		b.Fatal("resident jobs drained; lower -benchtime")
	}
	if _, err := svc.Report(resp.Assignment.ID, workerID, api.OutcomeSuccess); err != nil {
		b.Fatal(err)
	}
}
