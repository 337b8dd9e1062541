// Package experiment regenerates every table and figure of the paper's
// evaluation (§5): the workload characterizations (Table 2, Figures 1 and
// 3), the four makespan sweeps (Figures 4, 6, 7, 8), the transfer counts
// (Figure 5), the per-site data-server breakdown (Table 3), and five
// ablations on design choices the paper leaves open or motivates without
// evaluating (combined-formula reading, ChooseTask window, eviction
// policy, worker churn, proactive data replication).
//
// Each experiment is a parameter sweep over (x-value, algorithm, topology
// seed); per the paper, every point is averaged over the topology seeds.
// Runs execute in parallel across a bounded worker pool and results are
// deterministic for a fixed Options regardless of execution interleaving.
package experiment

import (
	"fmt"
	"runtime"
	"sync"

	"gridsched/internal/core"
	"gridsched/internal/grid"
	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// Options scales an experiment. The zero value is filled to paper scale by
// Normalize; benchmarks shrink Tasks and Seeds to stay fast.
type Options struct {
	// Tasks is the coadd workload slice to simulate (paper: 6000).
	Tasks int `json:"tasks"`
	// CoaddSeed selects the synthetic trace (workload.DefaultCoaddSeed
	// reproduces Table 2).
	CoaddSeed int64 `json:"coaddSeed"`
	// Seeds are the topology/speed seeds averaged over (paper: 5).
	Seeds []int64 `json:"seeds"`
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	Parallelism int `json:"parallelism"`
}

// Normalize fills defaults.
func (o *Options) Normalize() {
	if o.Tasks == 0 {
		o.Tasks = 6000
	}
	if o.CoaddSeed == 0 {
		o.CoaddSeed = workload.DefaultCoaddSeed
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3, 4, 5}
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// Algorithm names a scheduler constructor. Fresh scheduler state per run.
type Algorithm struct {
	Name  string
	Build func(w *workload.Workload, cfg grid.Config, seed int64) (core.Scheduler, error)
}

// workerCentricAlg builds a worker-centric algorithm entry.
func workerCentricAlg(metric core.Metric, n int) Algorithm {
	name := metric.String()
	if n > 1 {
		name = fmt.Sprintf("%s.%d", metric, n)
	}
	return Algorithm{
		Name: name,
		Build: func(w *workload.Workload, cfg grid.Config, seed int64) (core.Scheduler, error) {
			return core.NewWorkerCentric(w, core.WorkerCentricConfig{Metric: metric, ChooseN: n, Seed: seed})
		},
	}
}

// storageAffinityAlg builds the task-centric baseline entry.
func storageAffinityAlg() Algorithm {
	return Algorithm{
		Name: "task-centric storage affinity",
		Build: func(w *workload.Workload, cfg grid.Config, seed int64) (core.Scheduler, error) {
			return core.NewStorageAffinity(w, core.StorageAffinityConfig{
				Sites:          cfg.Sites,
				WorkersPerSite: cfg.WorkersPerSite,
				CapacityFiles:  cfg.CapacityFiles,
				Policy:         cfg.Policy,
				MaxReplicas:    3,
			})
		},
	}
}

// workqueueAlg builds the FIFO control entry.
func workqueueAlg() Algorithm {
	return Algorithm{
		Name: "workqueue",
		Build: func(w *workload.Workload, cfg grid.Config, seed int64) (core.Scheduler, error) {
			return core.NewWorkqueue(w), nil
		},
	}
}

// PaperAlgorithms returns the six algorithms of §5.3 in the paper's order.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{
		storageAffinityAlg(),
		workerCentricAlg(core.MetricOverlap, 1),
		workerCentricAlg(core.MetricRest, 1),
		workerCentricAlg(core.MetricCombined, 1),
		workerCentricAlg(core.MetricRest, 2),
		workerCentricAlg(core.MetricCombined, 2),
	}
}

// run identifies one simulation in a sweep.
type run struct {
	pointIdx int
	algIdx   int
	seedIdx  int
	cfg      grid.Config
	alg      Algorithm
	seed     int64
}

// CellResults holds the per-seed results for one (point, algorithm) cell.
type CellResults struct {
	Runs []*grid.Result
}

// Makespans returns per-seed makespans in minutes.
func (c *CellResults) Makespans() []float64 {
	out := make([]float64, 0, len(c.Runs))
	for _, r := range c.Runs {
		out = append(out, r.MakespanMinutes())
	}
	return out
}

// Transfers returns per-seed total file-transfer counts.
func (c *CellResults) Transfers() []float64 {
	out := make([]float64, 0, len(c.Runs))
	for _, r := range c.Runs {
		out = append(out, float64(r.Metrics.TotalFileTransfers()))
	}
	return out
}

// RedundantTransfers returns per-seed redundant transfer counts.
func (c *CellResults) RedundantTransfers() []float64 {
	out := make([]float64, 0, len(c.Runs))
	for _, r := range c.Runs {
		out = append(out, float64(r.Metrics.RedundantTransfers()))
	}
	return out
}

// Sweep is the raw grid of results: Cells[pointIdx][algIdx].
type Sweep struct {
	PointLabels []string
	Algorithms  []string
	Cells       [][]*CellResults
}

// runSweep executes every (point, algorithm, seed) combination in parallel.
// configs[i] is the per-point base config; the workload, topology seed, and
// speed seed are filled per run.
func runSweep(opts Options, w *workload.Workload, pointLabels []string, configs []grid.Config, algs []Algorithm) (*Sweep, error) {
	if len(pointLabels) != len(configs) {
		return nil, fmt.Errorf("experiment: %d labels for %d configs", len(pointLabels), len(configs))
	}
	sweep := &Sweep{PointLabels: pointLabels}
	for _, a := range algs {
		sweep.Algorithms = append(sweep.Algorithms, a.Name)
	}
	sweep.Cells = make([][]*CellResults, len(configs))
	var runs []run
	for pi, cfg := range configs {
		sweep.Cells[pi] = make([]*CellResults, len(algs))
		for ai := range algs {
			sweep.Cells[pi][ai] = &CellResults{Runs: make([]*grid.Result, len(opts.Seeds))}
			for si, seed := range opts.Seeds {
				c := cfg
				c.Workload = w
				c.Topology.Seed = seed
				c.SpeedSeed = seed
				runs = append(runs, run{pointIdx: pi, algIdx: ai, seedIdx: si, cfg: c, alg: algs[ai], seed: seed})
			}
		}
	}

	// Every cell builds its scheduler over w: have core prepare the index
	// they share for that many, once, before the first.
	core.ShareIndex(w)

	sem := make(chan struct{}, opts.Parallelism)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, r := range runs {
		r := r
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed {
				return
			}
			sched, err := r.alg.Build(w, r.cfg, r.seed)
			if err == nil {
				var res *grid.Result
				res, err = grid.Run(r.cfg, sched)
				if err == nil {
					mu.Lock()
					sweep.Cells[r.pointIdx][r.algIdx].Runs[r.seedIdx] = res
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("experiment: point %q algorithm %q seed %d: %w",
					pointLabels[r.pointIdx], r.alg.Name, r.seed, err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sweep, nil
}

// coaddWorkload builds the experiment workload from options.
func coaddWorkload(opts Options) (*workload.Workload, error) {
	cfg := workload.CoaddSmallConfig(opts.CoaddSeed)
	cfg.Tasks = opts.Tasks
	return workload.GenerateCoadd(cfg)
}

// baseConfig returns the Table 1 default run configuration.
func baseConfig() grid.Config {
	return grid.Config{
		Sites:          grid.DefaultSites,
		WorkersPerSite: grid.DefaultWorkersPerSite,
		CapacityFiles:  grid.DefaultCapacityFiles,
		Policy:         storage.LRU,
		FileSizeBytes:  grid.DefaultFileSizeBytes,
	}
}
