package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"gridsched"
	"gridsched/internal/workload"
)

// sweepFigures are the paper's four makespan sweeps; points is how many
// x-values each has (six algorithms are run at every point).
var sweepFigures = []struct {
	id     string
	points int
}{{"figure4", 4}, {"figure6", 5}, {"figure7", 5}, {"figure8", 3}}

const paperAlgorithms = 6

// storageAffinityColumn is the one task-centric algorithm of the sweeps;
// the schedule-quality figures average the worker-centric ones only.
const storageAffinityColumn = "task-centric storage affinity"

func sweepTasks(e *env) int {
	if e.small {
		return 120
	}
	return 6000
}

// sweepSetup generates the sweep's input: the Coadd trace and the count of
// distinct files it references (every one is fetched at least once, so the
// redundant-transfer series of figure 5 plus this count is the total).
func sweepSetup(e *env) (*workload.Workload, int, error) {
	w, err := coadd(e.seed, 0, sweepTasks(e))
	if err != nil {
		return nil, 0, err
	}
	return w, workload.ComputeStats(w).TotalFiles, nil
}

// workerCentricMean averages a report's numeric series over every cell of
// the worker-centric algorithms.
func workerCentricMean(rep *gridsched.Report) (mean float64, cells int, err error) {
	var sum float64
	for ai, series := range rep.Series {
		if rep.Columns[ai+1] == storageAffinityColumn {
			continue
		}
		for _, v := range series {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return 0, 0, fmt.Errorf("%s: cell of %s is %v", rep.ID, rep.Columns[ai+1], v)
			}
			sum += v
			cells++
		}
	}
	if cells == 0 {
		return 0, 0, fmt.Errorf("%s: no worker-centric cells", rep.ID)
	}
	return sum / float64(cells), cells, nil
}

// runPaperSweep is the batch workload: the paper's figures 4, 6, 7 and 8
// through the root facade, at 6,000 tasks and one topology seed. The unit
// operation is one regeneration of all four figures.
func runPaperSweep(ctx context.Context, e *env) (*outcome, error) {
	if e.trace {
		return traceSweep(ctx, e)
	}
	var setupS []float64
	var w *workload.Workload
	var distinct int
	for i := 0; i < 5; i++ {
		start := time.Now()
		var err error
		if w, distinct, err = sweepSetup(e); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	opts := gridsched.ExperimentOptions{
		Tasks: sweepTasks(e), CoaddSeed: coaddSeed(e.seed, 0), Seeds: []int64{e.seed},
		Parallelism: min(runtime.NumCPU(), 4),
	}

	o := &outcome{}
	wall := make([][]float64, len(sweepFigures)) // seconds per run of each figure
	first := make([][]*gridsched.Report, len(sweepFigures))
	begin := time.Now()
	for pass := 0; pass == 0 || time.Since(begin).Seconds() < e.seconds; pass++ {
		for fi, fig := range sweepFigures {
			if pass > 0 && time.Since(begin).Seconds() >= e.seconds {
				break
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			start := time.Now()
			reps, err := gridsched.RunExperiment(fig.id, opts)
			if err != nil {
				return nil, err
			}
			wall[fi] = append(wall[fi], time.Since(start).Seconds())
			o.attempted += int64(fig.points * paperAlgorithms)
			if first[fi] == nil {
				first[fi] = reps
				continue
			}
			// A repeated figure must reproduce the first one bit for bit.
			a, _ := json.Marshal(first[fi][0].Series)
			b, _ := json.Marshal(reps[0].Series)
			if string(a) != string(b) {
				o.violations = append(o.violations, fmt.Sprintf("%s differs between two runs with the same options", fig.id))
			}
		}
	}

	// One cell run twice through the facade: complete and bit-identical.
	var cell [2][]byte
	for i := range cell {
		res, err := gridsched.RunSimulation(gridsched.SimulationConfig{Workload: w, SpeedSeed: e.seed}, "combined.2")
		if err != nil {
			return nil, err
		}
		o.attempted++
		if res.Metrics.TasksCompleted != len(w.Tasks) {
			o.failed++
			o.violations = append(o.violations, fmt.Sprintf("cell completed %d of %d tasks", res.Metrics.TasksCompleted, len(w.Tasks)))
		}
		cell[i], _ = json.Marshal(res)
	}
	if string(cell[0]) != string(cell[1]) {
		o.violations = append(o.violations, "a repeated cell is not bit-identical")
	}

	var makespans []float64
	var passS float64
	tasks := 0
	for fi, fig := range sweepFigures {
		m, _, err := workerCentricMean(first[fi][0])
		if err != nil {
			o.violations = append(o.violations, err.Error())
		}
		makespans = append(makespans, m)
		passS += median(wall[fi])
		tasks += fig.points * paperAlgorithms * sweepTasks(e)
	}
	redundant, _, err := workerCentricMean(first[0][1]) // figure4 also emits figure5
	if err != nil {
		o.violations = append(o.violations, err.Error())
	}
	rss, _ := procStatusMB(os.Getpid(), "VmHWM")
	o.metrics = map[string]float64{
		mSetupS:           median(setupS),
		mTasksPerS:        float64(tasks) / passS,
		mOpP50Ms:          passS * 1e3,
		mPeakRSSMB:        rss,
		mTransfersPerTask: (redundant + float64(distinct)) / float64(sweepTasks(e)),
	}
	o.notes = append(o.notes,
		fmt.Sprintf("op = figures 4, 6, 7, 8 regenerated once (%d simulated tasks); per-figure wall (s): %.2f", tasks, wall),
		fmt.Sprintf("worker-centric mean makespan per figure (min): %.1f; mean redundant transfers (figure5): %.0f; distinct files %d", makespans, redundant, distinct),
		fmt.Sprintf("set-up samples (s): %.4f", setupS),
	)
	return o, nil
}
