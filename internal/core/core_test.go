package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// wl builds a workload from explicit file lists.
func wl(t *testing.T, numFiles int, fileLists ...[]int) *workload.Workload {
	t.Helper()
	w := &workload.Workload{Name: "test", NumFiles: numFiles}
	for i, fl := range fileLists {
		task := workload.Task{ID: workload.TaskID(i)}
		for _, f := range fl {
			task.Files = append(task.Files, workload.FileID(f))
		}
		w.Tasks = append(w.Tasks, task)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func fids(vals ...int) []workload.FileID {
	out := make([]workload.FileID, len(vals))
	for i, v := range vals {
		out[i] = workload.FileID(v)
	}
	return out
}

func newWC(t *testing.T, w *workload.Workload, m Metric, n int) *WorkerCentric {
	t.Helper()
	s, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: m, ChooseN: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkerCentricConfigValidation(t *testing.T) {
	w := wl(t, 2, []int{0}, []int{1})
	if _, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: Metric(0), ChooseN: 1}); err == nil {
		t.Error("accepted unknown metric")
	}
	if _, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: MetricRest, ChooseN: 0}); err == nil {
		t.Error("accepted ChooseN = 0")
	}
}

func TestWorkerCentricNames(t *testing.T) {
	w := wl(t, 2, []int{0}, []int{1})
	cases := []struct {
		m    Metric
		n    int
		want string
	}{
		{MetricOverlap, 1, "overlap"},
		{MetricRest, 1, "rest"},
		{MetricCombined, 1, "combined"},
		{MetricRest, 2, "rest.2"},
		{MetricCombined, 2, "combined.2"},
	}
	for _, c := range cases {
		s := newWC(t, w, c.m, c.n)
		if got := s.Name(); got != c.want {
			t.Errorf("name = %q, want %q", got, c.want)
		}
	}
}

func TestOverlapMetricPrefersResidentFiles(t *testing.T) {
	// Task 0 shares nothing with site storage; task 1 shares 2 files;
	// task 2 shares 1 file.
	w := wl(t, 10, []int{7, 8, 9}, []int{0, 1, 5}, []int{1, 6, 4})
	s := newWC(t, w, MetricOverlap, 1)
	s.AttachSite(0)
	// Site 0 received files 0, 1 from some earlier batch.
	s.NoteBatch(0, fids(0, 1), fids(0, 1), nil)

	task, st := s.NextFor(WorkerRef{Site: 0})
	if st != Assigned || task.ID != 1 {
		t.Fatalf("assigned task %d (status %v), want task 1", task.ID, st)
	}
	task, st = s.NextFor(WorkerRef{Site: 0})
	if st != Assigned || task.ID != 2 {
		t.Fatalf("assigned task %d (status %v), want task 2", task.ID, st)
	}
	task, st = s.NextFor(WorkerRef{Site: 0})
	if st != Assigned || task.ID != 0 {
		t.Fatalf("assigned task %d (status %v), want task 0", task.ID, st)
	}
	if _, st = s.NextFor(WorkerRef{Site: 0}); st != Done {
		t.Fatalf("status = %v, want Done when pending empty", st)
	}
}

func TestRestMetricMinimizesTransfers(t *testing.T) {
	// Task 0: needs 2, has 1 resident -> missing 1 -> rest 1.
	// Task 1: needs 4, has 2 resident -> missing 2 -> rest 0.5.
	// Overlap would prefer task 1 (|Ft|=2); rest must prefer task 0.
	w := wl(t, 10, []int{0, 5}, []int{1, 2, 6, 7})
	s := newWC(t, w, MetricRest, 1)
	s.AttachSite(0)
	s.NoteBatch(0, fids(0, 1, 2), fids(0, 1, 2), nil)

	task, st := s.NextFor(WorkerRef{Site: 0})
	if st != Assigned || task.ID != 0 {
		t.Fatalf("assigned task %d, want task 0 (fewest transfers)", task.ID)
	}
}

func TestOverlapVsRestDisagreement(t *testing.T) {
	// Same workload as above: overlap must pick the other task.
	w := wl(t, 10, []int{0, 5}, []int{1, 2, 6, 7})
	s := newWC(t, w, MetricOverlap, 1)
	s.AttachSite(0)
	s.NoteBatch(0, fids(0, 1, 2), fids(0, 1, 2), nil)
	task, _ := s.NextFor(WorkerRef{Site: 0})
	if task.ID != 1 {
		t.Fatalf("overlap assigned task %d, want task 1 (max |Ft|)", task.ID)
	}
}

func TestFullOverlapAlwaysWinsUnderRest(t *testing.T) {
	// Task 0 fully resident (rest = 1/0); it must be chosen over a task
	// with large overlap but missing files.
	w := wl(t, 10, []int{0, 1}, []int{2, 3, 4, 5, 9})
	s := newWC(t, w, MetricRest, 1)
	s.AttachSite(0)
	s.NoteBatch(0, fids(0, 1, 2, 3, 4, 5), fids(0, 1, 2, 3, 4, 5), nil)
	task, _ := s.NextFor(WorkerRef{Site: 0})
	if task.ID != 0 {
		t.Fatalf("assigned task %d, want full-overlap task 0", task.ID)
	}
}

func TestCombinedPrefersPastReferences(t *testing.T) {
	// Two tasks, both missing 1 file, same overlap count, but task 1's
	// overlapping file has a deep reference history at the site.
	w := wl(t, 10, []int{0, 5}, []int{1, 6})
	s := newWC(t, w, MetricCombined, 1)
	s.AttachSite(0)
	s.NoteBatch(0, fids(0, 1), fids(0, 1), nil)
	// Reference file 1 many more times (batches that only touch file 1).
	for i := 0; i < 5; i++ {
		s.NoteBatch(0, fids(1), nil, nil)
	}
	task, _ := s.NextFor(WorkerRef{Site: 0})
	if task.ID != 1 {
		t.Fatalf("assigned task %d, want task 1 (hot history)", task.ID)
	}
}

func TestCombinedLiteralInvertsRestTerm(t *testing.T) {
	// Task 0 missing 1 file (rest 1), task 1 missing 3 files (rest 1/3).
	// No reference history, so only the rest term differs. The literal
	// formula totalRest/rest_t prefers MORE missing files.
	w := wl(t, 10, []int{0, 5}, []int{1, 6, 7, 8})
	mk := func(m Metric) workload.TaskID {
		s := newWC(t, w, m, 1)
		s.AttachSite(0)
		s.NoteBatch(0, fids(0, 1), fids(0, 1), nil)
		task, _ := s.NextFor(WorkerRef{Site: 0})
		return task.ID
	}
	if got := mk(MetricCombined); got != 0 {
		t.Fatalf("combined assigned %d, want 0", got)
	}
	if got := mk(MetricCombinedLiteral); got != 1 {
		t.Fatalf("combined-literal assigned %d, want 1", got)
	}
}

func TestEvictionLowersOverlap(t *testing.T) {
	w := wl(t, 10, []int{0, 1, 5}, []int{2, 6, 7})
	s := newWC(t, w, MetricOverlap, 1)
	s.AttachSite(0)
	s.NoteBatch(0, fids(0, 1), fids(0, 1), nil)
	// Files 0 and 1 leave; file 2 arrives.
	s.NoteBatch(0, fids(2), fids(2), fids(0, 1))
	task, _ := s.NextFor(WorkerRef{Site: 0})
	if task.ID != 1 {
		t.Fatalf("assigned task %d, want task 1 after eviction shifted overlap", task.ID)
	}
}

func TestChooseTask2SamplesBothTopTasks(t *testing.T) {
	// Two tasks with nonzero weights 2 and 1: over many trials, n=2 must
	// choose each at least once, roughly 2:1.
	counts := map[workload.TaskID]int{}
	for trial := 0; trial < 400; trial++ {
		w := wl(t, 10, []int{0, 1, 5}, []int{2, 6})
		s, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: MetricOverlap, ChooseN: 2, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachSite(0)
		s.NoteBatch(0, fids(0, 1, 2), fids(0, 1, 2), nil)
		task, _ := s.NextFor(WorkerRef{Site: 0})
		counts[task.ID]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("randomized choice degenerate: %v", counts)
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.3 || ratio > 3.2 {
		t.Fatalf("ratio = %v (%v), want ~2", ratio, counts)
	}
}

func TestChooseTask1IsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		w := wl(t, 10, []int{0, 1, 5}, []int{2, 6})
		s, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: MetricOverlap, ChooseN: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachSite(0)
		s.NoteBatch(0, fids(0, 1, 2), fids(0, 1, 2), nil)
		task, _ := s.NextFor(WorkerRef{Site: 0})
		if task.ID != 0 {
			t.Fatalf("seed %d: task %d, want 0 regardless of seed", seed, task.ID)
		}
	}
}

func TestZeroWeightFallbackDispersesUniformly(t *testing.T) {
	// Empty storage under Overlap: all weights zero carries no
	// information, so the pick must be uniform over pending tasks rather
	// than always the head of the list (which would herd all sites onto
	// one region of a spatial workload).
	counts := map[workload.TaskID]int{}
	for seed := int64(0); seed < 60; seed++ {
		w := wl(t, 10, []int{0}, []int{1}, []int{2})
		s, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: MetricOverlap, ChooseN: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachSite(0)
		task, _ := s.NextFor(WorkerRef{Site: 0})
		counts[task.ID]++
	}
	for id := workload.TaskID(0); id < 3; id++ {
		if counts[id] == 0 {
			t.Fatalf("task %d never chosen under zero weights: %v", id, counts)
		}
	}
}

func TestRemainingAndCompletion(t *testing.T) {
	w := wl(t, 10, []int{0}, []int{1})
	s := newWC(t, w, MetricRest, 1)
	s.AttachSite(0)
	if s.Remaining() != 2 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	task, _ := s.NextFor(WorkerRef{Site: 0})
	if cancel := s.OnTaskComplete(task.ID, WorkerRef{Site: 0}); cancel != nil {
		t.Fatalf("worker-centric returned cancellations: %v", cancel)
	}
	if s.Remaining() != 1 {
		t.Fatalf("remaining = %d, want 1", s.Remaining())
	}
	// Duplicate completion is idempotent.
	s.OnTaskComplete(task.ID, WorkerRef{Site: 0})
	if s.Remaining() != 1 {
		t.Fatalf("remaining = %d after dup complete, want 1", s.Remaining())
	}
}

// Property: every task is assigned exactly once across any request pattern,
// for every metric.
func TestWorkerCentricAssignsEachTaskOnce(t *testing.T) {
	f := func(seed int64, metricRaw, sites uint8) bool {
		metric := []Metric{MetricOverlap, MetricRest, MetricCombined, MetricCombinedLiteral}[int(metricRaw)%4]
		nSites := 1 + int(sites)%4
		cfg := workload.CoaddSmallConfig(seed)
		cfg.Tasks = 60
		w, err := workload.GenerateCoadd(cfg)
		if err != nil {
			return false
		}
		s, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: metric, ChooseN: 2, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < nSites; i++ {
			s.AttachSite(i)
		}
		rng := rand.New(rand.NewSource(seed))
		got := make(map[workload.TaskID]int)
		for {
			site := rng.Intn(nSites)
			task, st := s.NextFor(WorkerRef{Site: site})
			if st == Done {
				break
			}
			got[task.ID]++
			// Simulate the batch commit at the site: everything fetched.
			s.NoteBatch(site, task.Files, task.Files, nil)
			s.OnTaskComplete(task.ID, WorkerRef{Site: site})
		}
		if len(got) != len(w.Tasks) {
			return false
		}
		for _, n := range got {
			if n != 1 {
				return false
			}
		}
		return s.Remaining() == 0
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWorkqueueFIFO(t *testing.T) {
	w := wl(t, 5, []int{0}, []int{1}, []int{2})
	s := NewWorkqueue(w)
	if s.Name() != "workqueue" {
		t.Fatalf("name = %q", s.Name())
	}
	for i := 0; i < 3; i++ {
		task, st := s.NextFor(WorkerRef{Site: i % 2})
		if st != Assigned || task.ID != workload.TaskID(i) {
			t.Fatalf("dispatch %d: task %d status %v", i, task.ID, st)
		}
	}
	// Everything dispatched but still in flight: idle workers wait in
	// case a straggler fails and needs a retry.
	if _, st := s.NextFor(WorkerRef{}); st != Wait {
		t.Fatalf("status = %v, want Wait while tasks in flight", st)
	}
	s.OnTaskComplete(0, WorkerRef{})
	if s.Remaining() != 2 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	s.OnTaskComplete(1, WorkerRef{})
	s.OnTaskComplete(2, WorkerRef{})
	if _, st := s.NextFor(WorkerRef{}); st != Done {
		t.Fatalf("status = %v, want Done after all complete", st)
	}
}

func TestWorkqueueRetriesFailedTask(t *testing.T) {
	w := wl(t, 5, []int{0}, []int{1})
	s := NewWorkqueue(w)
	t0, _ := s.NextFor(WorkerRef{})
	t1, _ := s.NextFor(WorkerRef{})
	s.OnExecutionFailed(t0.ID, WorkerRef{})
	retry, st := s.NextFor(WorkerRef{})
	if st != Assigned || retry.ID != t0.ID {
		t.Fatalf("retry = %v (%v), want task %d", retry.ID, st, t0.ID)
	}
	s.OnTaskComplete(t0.ID, WorkerRef{})
	s.OnTaskComplete(t1.ID, WorkerRef{})
	if s.Remaining() != 0 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
	// A failure reported after completion must not resurrect the task.
	s.OnExecutionFailed(t1.ID, WorkerRef{})
	if _, st := s.NextFor(WorkerRef{}); st != Done {
		t.Fatalf("status = %v, want Done", st)
	}
}

func TestWorkerCentricRequeuesFailedTask(t *testing.T) {
	w := wl(t, 6, []int{0}, []int{1}, []int{2})
	s := newWC(t, w, MetricRest, 1)
	s.AttachSite(0)
	var got []workload.TaskID
	for i := 0; i < 3; i++ {
		task, st := s.NextFor(WorkerRef{Site: 0})
		if st != Assigned {
			t.Fatalf("status %v", st)
		}
		got = append(got, task.ID)
	}
	if _, st := s.NextFor(WorkerRef{Site: 0}); st != Done {
		t.Fatalf("want Done with empty pending, got %v", st)
	}
	// Fail the middle task: it must become pending again, exactly once.
	s.OnExecutionFailed(got[1], WorkerRef{Site: 0})
	s.OnExecutionFailed(got[1], WorkerRef{Site: 0}) // duplicate report
	if s.pendingN != 1 {
		t.Fatalf("pending = %d, want 1", s.pendingN)
	}
	task, st := s.NextFor(WorkerRef{Site: 0})
	if st != Assigned || task.ID != got[1] {
		t.Fatalf("redispatch = %v (%v), want %d", task.ID, st, got[1])
	}
	// Failure after completion is ignored.
	s.OnTaskComplete(got[1], WorkerRef{Site: 0})
	s.OnExecutionFailed(got[1], WorkerRef{Site: 0})
	if s.pendingN != 0 {
		t.Fatalf("pending = %d after post-completion failure", s.pendingN)
	}
}

func TestStorageAffinityRequeuesFailedTask(t *testing.T) {
	w := wl(t, 4, []int{0, 1}, []int{2, 3})
	s, err := NewStorageAffinity(w, StorageAffinityConfig{
		Sites:          2,
		WorkersPerSite: 1,
		CapacityFiles:  10,
		Policy:         storagePolicyLRU(),
		MaxReplicas:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachSite(0)
	s.AttachSite(1)
	t0, _ := s.NextFor(WorkerRef{Site: 0, Worker: 0})
	t1, _ := s.NextFor(WorkerRef{Site: 1, Worker: 0})
	// Site 0's worker dies mid-execution.
	s.OnExecutionFailed(t0.ID, WorkerRef{Site: 0, Worker: 0})
	// The task must be dispatchable again (requeued at its home site).
	re, st := s.NextFor(WorkerRef{Site: 0, Worker: 0})
	if st != Assigned || re.ID != t0.ID {
		t.Fatalf("requeue = %v (%v), want %d", re.ID, st, t0.ID)
	}
	s.OnTaskComplete(t0.ID, WorkerRef{Site: 0, Worker: 0})
	s.OnTaskComplete(t1.ID, WorkerRef{Site: 1, Worker: 0})
	if s.Remaining() != 0 {
		t.Fatalf("remaining = %d", s.Remaining())
	}
}

// storagePolicyLRU avoids importing storage in multiple test spots.
func storagePolicyLRU() storage.Policy { return storage.LRU }

// TestIndexForConcurrent: indexFor builds outside the cache's lock, so
// submits and a recovery's restores that arrive together do not queue
// behind one another's builds. Goroutines released at once on distinct
// workloads each get their own workload's index; on one shared workload
// they all get the same index, whichever of them built it. Run under -race.
func TestIndexForConcurrent(t *testing.T) {
	const goroutines = 8
	race := func(workloadOf func(g int) *workload.Workload) []*fileIndex {
		got := make([]*fileIndex, goroutines)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := workloadOf(g)
				<-start
				got[g] = indexFor(w)
			}()
		}
		close(start)
		wg.Wait()
		return got
	}

	// Distinct workloads — more of them than the cache holds — told apart
	// by size: workload g has g+1 tasks, task k reading files k and k+1.
	distinct := make([]*workload.Workload, goroutines)
	for g := range distinct {
		lists := make([][]int, g+1)
		for k := range lists {
			lists[k] = []int{k, k + 1}
		}
		distinct[g] = wl(t, goroutines+1, lists...)
	}
	for g, idx := range race(func(g int) *workload.Workload { return distinct[g] }) {
		if len(idx.filesLen) != g+1 || len(idx.byFile) != goroutines+1 || idx.maxFiles != 2 {
			t.Fatalf("workload %d got an index over %d tasks, %d files", g, len(idx.filesLen), len(idx.byFile))
		}
		// File g is read by tasks g-1 and g; file g+1 by task g alone.
		if got := idx.byFile[g+1]; len(got) != 1 || got[0] != workload.TaskID(g) {
			t.Fatalf("workload %d: file %d indexed to tasks %v", g, g+1, got)
		}
	}

	shared := wl(t, 3, []int{0, 1}, []int{1, 2})
	got := race(func(int) *workload.Workload { return shared })
	for g, idx := range got {
		if idx != got[0] {
			t.Fatalf("goroutine %d got a different index of the shared workload than goroutine 0", g)
		}
	}
	if again := indexFor(shared); again != got[0] {
		t.Fatal("the shared workload's index did not stay cached")
	}
}

// TestWorkqueueIgnoresStorage: workqueue keeps no site state, so attaching
// a site and noting its batches change no dispatch.
func TestWorkqueueIgnoresStorage(t *testing.T) {
	s := NewWorkqueue(wl(t, 5, []int{0}, []int{1}, []int{2}))
	s.AttachSite(1)
	s.NoteBatch(1, fids(2), fids(2), fids(0))
	for i := 0; i < 3; i++ {
		if task, st := s.NextFor(WorkerRef{Site: 1}); st != Assigned || task.ID != workload.TaskID(i) {
			t.Fatalf("dispatch %d: task %d status %v, want FIFO order", i, task.ID, st)
		}
	}
}

func TestContextAwareName(t *testing.T) {
	s := NewContextAware(NewWorkqueue(wl(t, 1, []int{0})), nil)
	if got := s.Name(); got != "context:workqueue" {
		t.Fatalf("name = %q, want the inner name behind context:", got)
	}
}

// TestCountingSourceSeed: reseeding restarts the stream and its draw count,
// as a fresh source would.
func TestCountingSourceSeed(t *testing.T) {
	c := &countingSource{src: rand.NewSource(1)}
	first := c.Int63()
	c.Int63()
	c.Seed(1)
	if c.n != 0 {
		t.Fatalf("draws after Seed = %d, want 0", c.n)
	}
	if got := c.Int63(); got != first || c.n != 1 {
		t.Fatalf("after Seed: value %d (draws %d), want %d (1)", got, c.n, first)
	}
}
