package grid

import (
	"testing"

	"gridsched/internal/core"
	"gridsched/internal/storage"
	"gridsched/internal/topology"
	"gridsched/internal/trace"
	"gridsched/internal/workload"
)

// smallWorkload builds a reduced coadd trace for fast integration runs.
func smallWorkload(t *testing.T, tasks int) *workload.Workload {
	t.Helper()
	cfg := workload.CoaddSmallConfig(workload.DefaultCoaddSeed)
	cfg.Tasks = tasks
	w, err := workload.GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func smallConfig(w *workload.Workload) Config {
	return Config{
		Workload:       w,
		Topology:       topology.DefaultTiersConfig(1),
		Sites:          4,
		WorkersPerSite: 2,
		CapacityFiles:  2000,
	}
}

func runWC(t *testing.T, cfg Config, metric core.Metric, n int) *Result {
	t.Helper()
	s, err := core.NewWorkerCentric(cfg.Workload, core.WorkerCentricConfig{Metric: metric, ChooseN: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runSA(t *testing.T, cfg Config) *Result {
	t.Helper()
	s, err := core.NewStorageAffinity(cfg.Workload, core.StorageAffinityConfig{
		Sites:          cfg.Sites,
		WorkersPerSite: cfg.WorkersPerSite,
		CapacityFiles:  cfg.CapacityFiles,
		Policy:         storage.LRU,
		MaxReplicas:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCompletesAllTasksWorkerCentric(t *testing.T) {
	w := smallWorkload(t, 200)
	cfg := smallConfig(w)
	for _, m := range []core.Metric{core.MetricOverlap, core.MetricRest, core.MetricCombined} {
		res := runWC(t, cfg, m, 1)
		if res.Metrics.TasksCompleted != 200 {
			t.Fatalf("%v: completed %d of 200", m, res.Metrics.TasksCompleted)
		}
		if res.Metrics.MakespanSec <= 0 {
			t.Fatalf("%v: makespan %v", m, res.Metrics.MakespanSec)
		}
		if res.Metrics.TotalFileTransfers() == 0 {
			t.Fatalf("%v: no file transfers recorded", m)
		}
		if res.Metrics.CancelledExecutions != 0 {
			t.Fatalf("%v: worker-centric cancelled %d executions", m, res.Metrics.CancelledExecutions)
		}
	}
}

func TestRunCompletesAllTasksStorageAffinity(t *testing.T) {
	w := smallWorkload(t, 200)
	cfg := smallConfig(w)
	res := runSA(t, cfg)
	if res.Metrics.TasksCompleted != 200 {
		t.Fatalf("completed %d of 200", res.Metrics.TasksCompleted)
	}
	if res.Scheduler != "storage-affinity" {
		t.Fatalf("scheduler = %q", res.Scheduler)
	}
}

func TestRunCompletesWorkqueue(t *testing.T) {
	w := smallWorkload(t, 150)
	cfg := smallConfig(w)
	res, err := Run(cfg, core.NewWorkqueue(w))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TasksCompleted != 150 {
		t.Fatalf("completed %d of 150", res.Metrics.TasksCompleted)
	}
}

func TestDeterministicReplay(t *testing.T) {
	w := smallWorkload(t, 150)
	cfg := smallConfig(w)
	a := runWC(t, cfg, core.MetricCombined, 2)
	b := runWC(t, cfg, core.MetricCombined, 2)
	if a.Metrics.MakespanSec != b.Metrics.MakespanSec {
		t.Fatalf("makespans differ: %v vs %v", a.Metrics.MakespanSec, b.Metrics.MakespanSec)
	}
	if a.Metrics.TotalFileTransfers() != b.Metrics.TotalFileTransfers() {
		t.Fatalf("transfers differ: %d vs %d", a.Metrics.TotalFileTransfers(), b.Metrics.TotalFileTransfers())
	}
	if a.WallEvents != b.WallEvents {
		t.Fatalf("event counts differ: %d vs %d", a.WallEvents, b.WallEvents)
	}
}

func TestTransfersBoundedByReferences(t *testing.T) {
	w := smallWorkload(t, 200)
	cfg := smallConfig(w)
	stats := workload.ComputeStats(w)
	res := runWC(t, cfg, core.MetricRest, 1)
	total := res.Metrics.TotalFileTransfers()
	// Transfers can never exceed total references, and with ample storage
	// can never be below the distinct files touched per site lower bound:
	// at least every referenced file once somewhere.
	if total > int64(stats.TotalReferences) {
		t.Fatalf("transfers %d exceed total references %d", total, stats.TotalReferences)
	}
	if total < int64(stats.TotalFiles) {
		t.Fatalf("transfers %d below distinct files %d (files appeared from nowhere)", total, stats.TotalFiles)
	}
}

func TestLocalityBeatsWorkqueueOnTransfers(t *testing.T) {
	w := smallWorkload(t, 300)
	cfg := smallConfig(w)
	rest := runWC(t, cfg, core.MetricRest, 1)
	wq, err := Run(cfg, core.NewWorkqueue(w))
	if err != nil {
		t.Fatal(err)
	}
	if rest.Metrics.TotalFileTransfers() >= wq.Metrics.TotalFileTransfers() {
		t.Fatalf("rest transfers %d not below workqueue %d; locality not exploited",
			rest.Metrics.TotalFileTransfers(), wq.Metrics.TotalFileTransfers())
	}
}

func TestSmallCapacityForcesEvictions(t *testing.T) {
	w := smallWorkload(t, 300)
	cfg := smallConfig(w)
	cfg.CapacityFiles = 200 // just above max task size
	res := runWC(t, cfg, core.MetricRest, 1)
	var evictions int64
	for i := range res.Metrics.Sites {
		evictions += res.Metrics.Sites[i].Evictions
	}
	if evictions == 0 {
		t.Fatal("no evictions under tight capacity")
	}
	// Tight capacity must cost transfers vs roomy capacity.
	roomy := runWC(t, smallConfig(w), core.MetricRest, 1)
	if res.Metrics.TotalFileTransfers() <= roomy.Metrics.TotalFileTransfers() {
		t.Fatalf("tight capacity transfers %d <= roomy %d",
			res.Metrics.TotalFileTransfers(), roomy.Metrics.TotalFileTransfers())
	}
}

func TestStorageAffinityCancelsReplicas(t *testing.T) {
	w := smallWorkload(t, 120)
	cfg := smallConfig(w)
	cfg.Sites = 6
	cfg.WorkersPerSite = 4 // plenty of idle workers near the tail
	res := runSA(t, cfg)
	if res.Metrics.TasksCompleted != 120 {
		t.Fatalf("completed %d", res.Metrics.TasksCompleted)
	}
	var executed int64
	for i := range res.Metrics.Sites {
		executed += res.Metrics.Sites[i].TasksExecuted
	}
	// Executions = completions + cancelled/abandoned replicas.
	if executed < 120 {
		t.Fatalf("executed %d < tasks", executed)
	}
	if got := executed - 120 - res.Metrics.CancelledExecutions; got != 0 {
		t.Fatalf("execution accounting off by %d (executed=%d cancelled=%d)",
			got, executed, res.Metrics.CancelledExecutions)
	}
}

func TestConfigValidation(t *testing.T) {
	w := smallWorkload(t, 50)
	bad := Config{Workload: nil}
	if err := bad.Normalize(); err == nil {
		t.Error("accepted nil workload")
	}
	cfg := smallConfig(w)
	cfg.Sites = 10_000
	if err := cfg.Normalize(); err == nil {
		t.Error("accepted more sites than topology has")
	}
	cfg = smallConfig(w)
	cfg.CapacityFiles = 10 // below max task size
	if err := cfg.Normalize(); err == nil {
		t.Error("accepted capacity below largest task")
	}
}

func TestNormalizeAppliesTable1Defaults(t *testing.T) {
	w := smallWorkload(t, 50)
	cfg := Config{Workload: w}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Sites != 10 || cfg.WorkersPerSite != 1 || cfg.CapacityFiles != 6000 || cfg.FileSizeBytes != 25e6 {
		t.Fatalf("defaults = %+v, want Table 1", cfg)
	}
	if cfg.Policy != storage.LRU {
		t.Fatalf("default policy = %v", cfg.Policy)
	}
}

func TestWaitTimesAccumulateUnderContention(t *testing.T) {
	w := smallWorkload(t, 200)
	cfg := smallConfig(w)
	cfg.Sites = 2
	cfg.WorkersPerSite = 6 // heavy data-server contention
	res := runWC(t, cfg, core.MetricRest, 1)
	var wait float64
	for i := range res.Metrics.Sites {
		wait += res.Metrics.Sites[i].WaitTimeSum
	}
	if wait <= 0 {
		t.Fatal("no queueing delay with 6 workers per data server")
	}
}

func TestChurnRunsCompleteAllTasks(t *testing.T) {
	w := smallWorkload(t, 150)
	for _, mk := range []struct {
		name  string
		build func(cfg Config) (res *Result)
	}{
		{"rest", func(cfg Config) *Result { return runWC(t, cfg, core.MetricRest, 1) }},
		{"storage-affinity", func(cfg Config) *Result { return runSA(t, cfg) }},
	} {
		cfg := smallConfig(w)
		cfg.ChurnMeanUpSec = 40_000 // a few failures per worker over the run
		cfg.ChurnMeanDownSec = 4_000
		res := mk.build(cfg)
		if res.Metrics.TasksCompleted != 150 {
			t.Fatalf("%s: completed %d of 150 under churn", mk.name, res.Metrics.TasksCompleted)
		}
		if res.Metrics.FailedExecutions == 0 {
			t.Fatalf("%s: churn enabled but no executions failed", mk.name)
		}
	}
}

func TestChurnSlowsMakespan(t *testing.T) {
	w := smallWorkload(t, 200)
	base := smallConfig(w)
	healthy := runWC(t, base, core.MetricRest, 1)
	churned := base
	churned.ChurnMeanUpSec = 30_000
	churned.ChurnMeanDownSec = 15_000
	sick := runWC(t, churned, core.MetricRest, 1)
	if sick.Metrics.MakespanSec <= healthy.Metrics.MakespanSec {
		t.Fatalf("churned makespan %v not above healthy %v",
			sick.Metrics.MakespanSec, healthy.Metrics.MakespanSec)
	}
}

func TestChurnDeterministic(t *testing.T) {
	w := smallWorkload(t, 100)
	cfg := smallConfig(w)
	cfg.ChurnMeanUpSec = 30_000
	cfg.ChurnMeanDownSec = 5_000
	a := runWC(t, cfg, core.MetricRest, 1)
	b := runWC(t, cfg, core.MetricRest, 1)
	if a.Metrics.MakespanSec != b.Metrics.MakespanSec ||
		a.Metrics.FailedExecutions != b.Metrics.FailedExecutions {
		t.Fatalf("churn replay diverged: %v/%d vs %v/%d",
			a.Metrics.MakespanSec, a.Metrics.FailedExecutions,
			b.Metrics.MakespanSec, b.Metrics.FailedExecutions)
	}
}

func TestChurnConfigValidation(t *testing.T) {
	w := smallWorkload(t, 50)
	cfg := smallConfig(w)
	cfg.ChurnMeanUpSec = -1
	if err := cfg.Normalize(); err == nil {
		t.Error("accepted negative churn period")
	}
	cfg = smallConfig(w)
	cfg.ChurnMeanUpSec = 1000
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.ChurnMeanDownSec != 100 {
		t.Fatalf("default down period = %v, want MeanUp/10", cfg.ChurnMeanDownSec)
	}
}

func TestTraceTimelineInvariants(t *testing.T) {
	w := smallWorkload(t, 100)
	cfg := smallConfig(w)
	tr := &memTracer{}
	cfg.Tracer = tr
	res := runWC(t, cfg, core.MetricRest, 1)

	assigned := tr.ofKind(trace.TaskAssigned)
	completed := tr.ofKind(trace.TaskCompleted)
	if len(assigned) != 100 || len(completed) != 100 {
		t.Fatalf("assigned=%d completed=%d, want 100 each", len(assigned), len(completed))
	}
	if int(res.Metrics.TasksCompleted) != len(completed) {
		t.Fatalf("trace/metrics disagree: %d vs %d", len(completed), res.Metrics.TasksCompleted)
	}
	// Per task: assigned -> enqueued -> compute-start -> completed, with
	// non-decreasing timestamps.
	for id := int64(0); id < 100; id++ {
		tl := tr.taskTimeline(id)
		var kinds []trace.Kind
		for i, e := range tl {
			kinds = append(kinds, e.Kind)
			if i > 0 && e.At < tl[i-1].At {
				t.Fatalf("task %d: timeline goes backwards: %+v", id, tl)
			}
		}
		want := []trace.Kind{trace.TaskAssigned, trace.BatchEnqueued, trace.ComputeStart, trace.TaskCompleted}
		if len(kinds) != len(want) {
			t.Fatalf("task %d: kinds = %v", id, kinds)
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Fatalf("task %d: kinds = %v, want %v", id, kinds, want)
			}
		}
	}
	// Makespan equals the last completion timestamp.
	last := completed[len(completed)-1].At
	if last != res.Metrics.MakespanSec {
		t.Fatalf("last completion %v != makespan %v", last, res.Metrics.MakespanSec)
	}
}

func TestTraceRecordsChurnTransitions(t *testing.T) {
	w := smallWorkload(t, 100)
	cfg := smallConfig(w)
	cfg.ChurnMeanUpSec = 30_000
	cfg.ChurnMeanDownSec = 5_000
	tr := &memTracer{}
	cfg.Tracer = tr
	runWC(t, cfg, core.MetricRest, 1)
	downs := tr.ofKind(trace.WorkerDown)
	ups := tr.ofKind(trace.WorkerUp)
	if len(downs) == 0 {
		t.Fatal("no worker-down events under churn")
	}
	if len(ups) != len(downs) {
		t.Fatalf("ups %d != downs %d (every outage recovers before run end)", len(ups), len(downs))
	}
}

func TestReplicationPushesPopularFiles(t *testing.T) {
	w := smallWorkload(t, 250)
	cfg := smallConfig(w)
	cfg.Replication = ReplicationConfig{
		Threshold:      2, // any file fetched at 2+ sites is popular
		IntervalSec:    10_000,
		MaxPerInterval: 50,
	}
	tr := &memTracer{}
	cfg.Tracer = tr
	res := runWC(t, cfg, core.MetricRest, 1)
	if res.Metrics.TasksCompleted != 250 {
		t.Fatalf("completed %d", res.Metrics.TasksCompleted)
	}
	var replicas int64
	for i := range res.Metrics.Sites {
		replicas += res.Metrics.Sites[i].ProactiveReplicas
	}
	if replicas == 0 {
		t.Fatal("no proactive replicas pushed")
	}
	if got := len(tr.ofKind(trace.FileReplicated)); int64(got) != replicas {
		t.Fatalf("trace saw %d replications, metrics %d", got, replicas)
	}
}

func TestReplicationLeastLoadedStrategy(t *testing.T) {
	w := smallWorkload(t, 150)
	cfg := smallConfig(w)
	cfg.Replication = ReplicationConfig{
		Threshold:      2,
		IntervalSec:    10_000,
		MaxPerInterval: 25,
		Strategy:       ReplicateLeastLoaded,
	}
	res := runWC(t, cfg, core.MetricRest, 1)
	if res.Metrics.TasksCompleted != 150 {
		t.Fatalf("completed %d", res.Metrics.TasksCompleted)
	}
}

func TestReplicationConfigValidation(t *testing.T) {
	w := smallWorkload(t, 50)
	cfg := smallConfig(w)
	cfg.Replication.Threshold = -1
	if err := cfg.Normalize(); err == nil {
		t.Error("accepted negative threshold")
	}
	cfg = smallConfig(w)
	cfg.Replication = ReplicationConfig{Threshold: 3, Strategy: ReplicationStrategy(9)}
	if err := cfg.Normalize(); err == nil {
		t.Error("accepted unknown strategy")
	}
	cfg = smallConfig(w)
	cfg.Replication = ReplicationConfig{Threshold: 3}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Replication.IntervalSec != 3600 || cfg.Replication.MaxPerInterval != 64 || cfg.Replication.Strategy != ReplicateRandom {
		t.Fatalf("defaults = %+v", cfg.Replication)
	}
}

func TestReplicationDeterministic(t *testing.T) {
	w := smallWorkload(t, 120)
	cfg := smallConfig(w)
	cfg.Replication = ReplicationConfig{Threshold: 2, IntervalSec: 5_000, MaxPerInterval: 30}
	a := runWC(t, cfg, core.MetricRest, 1)
	b := runWC(t, cfg, core.MetricRest, 1)
	if a.Metrics.MakespanSec != b.Metrics.MakespanSec || a.WallEvents != b.WallEvents {
		t.Fatalf("replication replay diverged")
	}
}

// memTracer records a run's timeline in order. The simulator delivers
// events from one goroutine, so it needs no lock.
type memTracer struct{ events []trace.Event }

func (m *memTracer) Record(e trace.Event) { m.events = append(m.events, e) }

// ofKind returns the recorded events of one kind, in order.
func (m *memTracer) ofKind(k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range m.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// taskTimeline returns every event touching the given task, in order.
func (m *memTracer) taskTimeline(task int64) []trace.Event {
	var out []trace.Event
	for _, e := range m.events {
		if e.Task == task {
			out = append(out, e)
		}
	}
	return out
}
