// Package gridsched is a worker-centric scheduling library for
// data-intensive Bag-of-Tasks grid applications, reproducing Ko, Morales
// and Gupta, "New Worker-Centric Scheduling Strategies for Data-Intensive
// Grid Applications" (Middleware 2007).
//
// The package is the public facade over the implementation packages:
//
//   - workload generation (the synthetic Coadd trace and generic
//     Zipf/geometric/uniform generators),
//   - the schedulers (worker-centric Overlap/Rest/Combined with
//     ChooseTask(n), task-centric storage affinity, FIFO workqueue),
//   - the discrete-event grid simulator (sites, data servers, max-min fair
//     wide-area network, Top500-sampled worker speeds),
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	w, _ := gridsched.NewCoaddWorkload(gridsched.DefaultCoaddSeed, 1000)
//	res, _ := gridsched.RunSimulation(gridsched.SimulationConfig{Workload: w}, "combined.2")
//	fmt.Println(res.MakespanMinutes())
package gridsched

import (
	"fmt"
	"sort"

	"gridsched/internal/core"
	"gridsched/internal/experiment"
	"gridsched/internal/grid"
	"gridsched/internal/service"
	"gridsched/internal/workload"
)

// Aliases exposing the library's primary types under the public package
// name. (The implementation lives under internal/; the aliases are the
// supported names.)
type (
	// SimulationConfig configures one simulated run (Table 1 defaults
	// apply to zero fields).
	SimulationConfig = grid.Config
	// Result is one run's outcome: makespan, transfer counts, per-site
	// data-server metrics.
	Result = grid.Result
	// Workload is an immutable Bag-of-Tasks description.
	Workload = workload.Workload
	// Task is one unit of work.
	Task = workload.Task
	// Scheduler is the strategy contract shared by all algorithms.
	Scheduler = core.Scheduler
	// ExperimentOptions scales a paper experiment.
	ExperimentOptions = experiment.Options
	// Report is a rendered experiment artifact.
	Report = experiment.Report
	// CoaddConfig parameterizes the synthetic Coadd workload generator.
	CoaddConfig = workload.CoaddConfig
)

// DefaultCoaddSeed reproduces the paper-matching canonical trace.
const DefaultCoaddSeed = workload.DefaultCoaddSeed

// NewCoaddWorkload generates the synthetic Coadd trace with the given seed,
// truncated to the first tasks tasks (the paper evaluates the first 6,000).
func NewCoaddWorkload(seed int64, tasks int) (*Workload, error) {
	cfg := workload.CoaddSmallConfig(seed)
	if tasks > 0 {
		cfg.Tasks = tasks
	}
	return workload.GenerateCoadd(cfg)
}

// NewCoaddFullWorkload generates the full-application-scale trace (44,000
// tasks by default) used by the paper's Figure 1.
func NewCoaddFullWorkload(seed int64, tasks int) (*Workload, error) {
	cfg := workload.CoaddFullConfig(seed)
	if tasks > 0 {
		cfg.Tasks = tasks
	}
	return workload.GenerateCoadd(cfg)
}

// AlgorithmNames lists the scheduling strategies accepted by NewScheduler
// and RunSimulation, in the paper's order plus the workqueue control.
func AlgorithmNames() []string {
	names := []string{"task-centric storage affinity"}
	for _, m := range []core.Metric{core.MetricOverlap, core.MetricRest, core.MetricCombined} {
		names = append(names, m.String())
	}
	names = append(names, "rest.2", "combined.2", "workqueue")
	return names
}

// NewScheduler constructs a scheduling strategy by name for the given run
// configuration. Recognized names are those of AlgorithmNames, plus
// "rest.N"/"combined.N"/"overlap.N" for any randomization window N, and
// "combined-literal" for the ablation variant. seed drives the randomized
// ChooseTask(n) draw.
func NewScheduler(name string, w *Workload, cfg SimulationConfig, seed int64) (Scheduler, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return SchedulerFactory()(name, w, service.Topology{
		Sites:          cfg.Sites,
		WorkersPerSite: cfg.WorkersPerSite,
		CapacityFiles:  cfg.CapacityFiles,
		Policy:         cfg.Policy,
	}, seed)
}

// parseMetricName resolves "rest", "combined.2", "overlap.3", ...
func parseMetricName(name string) (core.Metric, int, error) {
	base := name
	n := 1
	if i := lastDot(name); i >= 0 {
		var parsed int
		if _, err := fmt.Sscanf(name[i+1:], "%d", &parsed); err == nil && parsed >= 1 {
			base = name[:i]
			n = parsed
		}
	}
	switch base {
	case "overlap":
		return core.MetricOverlap, n, nil
	case "rest":
		return core.MetricRest, n, nil
	case "combined":
		return core.MetricCombined, n, nil
	case "combined-literal":
		return core.MetricCombinedLiteral, n, nil
	default:
		return 0, 0, fmt.Errorf("gridsched: unknown algorithm %q (have %v)", name, AlgorithmNames())
	}
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// RunSimulation runs one simulation of cfg.Workload under the named
// algorithm and returns its metrics.
func RunSimulation(cfg SimulationConfig, algorithm string) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	sched, err := NewScheduler(algorithm, cfg.Workload, cfg, cfg.SpeedSeed+1)
	if err != nil {
		return nil, err
	}
	return grid.Run(cfg, sched)
}

// RunExperiment regenerates a paper artifact by id ("figure4", "table3",
// "ablation-eviction", ...). Shared sweeps emit multiple reports: the
// requested artifact is first.
func RunExperiment(id string, opts ExperimentOptions) ([]*Report, error) {
	def, err := experiment.Lookup(id)
	if err != nil {
		return nil, err
	}
	return def.Run(opts)
}

// ExperimentIDs lists the reproducible artifacts, sorted.
func ExperimentIDs() []string {
	ids := experiment.IDs()
	sort.Strings(ids)
	return ids
}

// Service aliases: the gridschedd scheduler daemon (internal/service) that
// serves workloads to remote pull-based workers over HTTP/JSON.
type (
	// Service is the embeddable scheduler daemon behind cmd/gridschedd.
	Service = service.Service
	// ServiceConfig parameterizes a Service.
	ServiceConfig = service.Config
	// ServiceTopology fixes the worker pool a Service schedules over.
	ServiceTopology = service.Topology
)

// NewService builds a gridschedd daemon. A nil cfg.NewScheduler is filled
// with SchedulerFactory, so jobs submitted over HTTP may pick any algorithm
// of AlgorithmNames.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = SchedulerFactory()
	}
	return service.New(cfg)
}

// Replication aliases: the hot-standby follower behind gridschedd -follow
// (docs/REPLICATION.md).
type (
	// Follower is a hot standby replicating a leader's journal; Promote
	// turns it into a live Service via the recovery path.
	Follower = service.Follower
	// FollowerConfig parameterizes the replication client of a Follower.
	FollowerConfig = service.FollowerConfig
)

// NewFollower builds a hot standby for the leader named in fcfg. cfg is
// the service configuration the standby will run with once promoted; as
// in NewService, a nil cfg.NewScheduler is filled with SchedulerFactory.
func NewFollower(cfg ServiceConfig, fcfg FollowerConfig) (*Follower, error) {
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = SchedulerFactory()
	}
	return service.NewFollower(cfg, fcfg)
}

// SchedulerFactory resolves the algorithm names of AlgorithmNames (plus the
// "rest.N"/"combined.N"/"overlap.N" and "combined-literal" variants) into
// schedulers for service jobs.
func SchedulerFactory() service.SchedulerFactory {
	return func(algorithm string, w *workload.Workload, topo service.Topology, seed int64) (core.Scheduler, error) {
		switch algorithm {
		case "task-centric storage affinity", "storage-affinity":
			return core.NewStorageAffinity(w, core.StorageAffinityConfig{
				Sites:          topo.Sites,
				WorkersPerSite: topo.WorkersPerSite,
				CapacityFiles:  topo.CapacityFiles,
				Policy:         topo.Policy,
				MaxReplicas:    3,
			})
		case "workqueue":
			return core.NewWorkqueue(w), nil
		}
		metric, n, err := parseMetricName(algorithm)
		if err != nil {
			return nil, err
		}
		return core.NewWorkerCentric(w, core.WorkerCentricConfig{Metric: metric, ChooseN: n, Seed: seed})
	}
}
