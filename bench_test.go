// Benchmarks regenerating every table and figure of the paper at reduced
// scale (600 tasks, one topology seed) so `go test -bench=.` finishes in
// minutes. Paper-scale numbers come from `cmd/experiments` (6,000 tasks,
// 5 seeds) and are recorded in EXPERIMENTS.md.
//
// The benchmark bodies live in internal/benchsuite, shared with
// cmd/gridbench so the recorded perf trajectory (BENCH_PR2.json, …)
// measures exactly what CI smoke-runs here.
package gridsched_test

import (
	"fmt"
	"testing"

	"gridsched"
	"gridsched/internal/benchsuite"
)

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
func BenchmarkFigure1(b *testing.B) { benchsuite.Experiment("figure1")(b) }

// BenchmarkFigure3 regenerates the Coadd-6000 reference CDF (paper Fig. 3)
// at full scale (workload generation only).
func BenchmarkFigure3(b *testing.B) { experimentFullScale("figure3")(b) }

// BenchmarkFigure4 regenerates the makespan-vs-capacity sweep (paper
// Fig. 4; the sweep also yields Fig. 5).
func BenchmarkFigure4(b *testing.B) { benchsuite.Experiment("figure4")(b) }

// BenchmarkFigure5 regenerates the transfers-vs-capacity sweep (paper
// Fig. 5).
func BenchmarkFigure5(b *testing.B) { benchsuite.Experiment("figure5")(b) }

// BenchmarkFigure6 regenerates the makespan-vs-workers sweep (paper
// Fig. 6; the sweep also yields Table 3).
func BenchmarkFigure6(b *testing.B) { benchsuite.Experiment("figure6")(b) }

// BenchmarkTable3 regenerates the per-site data-server breakdown (paper
// Table 3).
func BenchmarkTable3(b *testing.B) { benchsuite.Experiment("table3")(b) }

// BenchmarkFigure7 regenerates the makespan-vs-sites sweep (paper Fig. 7).
func BenchmarkFigure7(b *testing.B) { benchsuite.Experiment("figure7")(b) }

// BenchmarkFigure8 regenerates the makespan-vs-file-size sweep (paper
// Fig. 8).
func BenchmarkFigure8(b *testing.B) { benchsuite.Experiment("figure8")(b) }

// BenchmarkAblationCombined compares the Combined formula as intended vs.
// as typeset (DESIGN.md, "Combined formula").
func BenchmarkAblationCombined(b *testing.B) { benchsuite.Experiment("ablation-combined")(b) }

// BenchmarkAblationChooseTask sweeps the ChooseTask(n) window (§4.3).
func BenchmarkAblationChooseTask(b *testing.B) { benchsuite.Experiment("ablation-choosetask")(b) }

// BenchmarkAblationEviction compares LRU vs FIFO replacement at the
// tightest paper capacity.
func BenchmarkAblationEviction(b *testing.B) { benchsuite.Experiment("ablation-eviction")(b) }

// BenchmarkAblationChurn sweeps worker availability with failure injection
// (the overloaded suppliers motivating worker-centric scheduling, §1).
func BenchmarkAblationChurn(b *testing.B) { benchsuite.Experiment("ablation-churn")(b) }

// BenchmarkAblationReplication toggles Ranganathan-Foster proactive data
// replication under tight capacity (§3.1).
func BenchmarkAblationReplication(b *testing.B) { benchsuite.Experiment("ablation-replication")(b) }

// --- micro-benchmarks of the core scheduling path ---

// BenchmarkSchedulerRequest measures one worker-centric scheduling request
// (CalculateWeight + ChooseTask, served from the incremental weight-class
// indexes — see PERFORMANCE.md) on the full 6,000-task queue.
func BenchmarkSchedulerRequest(b *testing.B) {
	for _, name := range []string{"overlap", "rest", "combined", "combined.2"} {
		b.Run(name, benchsuite.SchedulerRequest(name))
	}
}

// BenchmarkStorageAffinityDraft measures the task-centric baseline's one-shot
// initial assignment: 6,000 Coadd tasks drafted onto 10 sites.
func BenchmarkStorageAffinityDraft(b *testing.B) { benchsuite.StorageAffinityDraft(b) }

// BenchmarkSimProcessSwitch measures one process resume of the simulation
// kernel (two processes ping-ponging over queues).
func BenchmarkSimProcessSwitch(b *testing.B) { benchsuite.SimProcessSwitch(b) }

// BenchmarkWorkloadGeneration measures synthetic Coadd trace generation at
// evaluation scale.
func BenchmarkWorkloadGeneration(b *testing.B) { benchsuite.WorkloadGeneration(b) }

// BenchmarkEndToEndSimulation measures a complete 600-task, 4-site run
// under combined.2 (scheduling + storage + network + kernel).
func BenchmarkEndToEndSimulation(b *testing.B) { benchsuite.EndToEndSimulation(b) }

// BenchmarkServiceSnapshotPause measures one compacting checkpoint with 1,
// 4, and 16 half-drained 6,000-task Coadd jobs resident: the
// stop-the-world pause (pause-ms/op) and the bytes written
// (snapshot-B/op) must track the ledgers, not the resident workload bytes
// (PERFORMANCE.md, PR 12).
func BenchmarkServiceSnapshotPause(b *testing.B) {
	for _, jobs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), benchsuite.ServiceSnapshotPause(jobs))
	}
}

// BenchmarkServiceRecovery measures one recovery of a data dir holding 1,
// 4, and 16 half-drained 6,000-task Coadd jobs: how long it takes
// (recover-ms/op) and how fast it replays (events/s). Jobs restore side by
// side, so the time should grow with jobs ÷ cores (PERFORMANCE.md, PR 15).
func BenchmarkServiceRecovery(b *testing.B) {
	for _, jobs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), benchsuite.ServiceRecovery(jobs))
	}
}
