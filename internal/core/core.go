// Package core implements the paper's scheduling strategies.
//
// Worker-centric scheduling (the contribution, §4): an idle worker asks the
// global scheduler for a task; the scheduler weighs every pending task for
// that worker's site with one of three data-reuse metrics — Overlap, Rest,
// Combined — and picks among the best n with probability proportional to
// weight (ChooseTask(n), §4.3).
//
// Task-centric storage affinity (the baseline, Santos-Neto et al. [14],
// described in §3.1): tasks are assigned up front to the site with maximum
// data affinity, workers drain their queues, and idle workers replicate
// incomplete tasks; completion cancels outstanding replicas.
//
// Plain FIFO workqueue (Cirne et al. [6]) is included as the classic
// worker-centric strategy without data awareness.
//
// Schedulers are engine-agnostic: the simulation engine (internal/grid) and
// the scheduler service (internal/service) drive them through the Scheduler
// interface, feeding storage-content changes via NoteBatch.
//
// # Dispatch cost
//
// WorkerCentric answers each NextFor in time sublinear in the pending-task
// count: pending tasks are bucketed per site into weight classes that are
// maintained incrementally as NoteBatch reports storage changes, so a
// request inspects only the top of a few class heaps instead of rescanning
// the queue (see the invariants documented on siteIndex in
// workercentric.go). StorageAffinity reads its draft picks, steals and
// replicas off the same kind of per-site classes (classSets) instead of
// scanning the task list. PERFORMANCE.md records the measured effect.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"gridsched/internal/workload"
)

// Metric selects the weight function of CalculateWeight (§4.2).
type Metric int

// Weight metrics.
const (
	// MetricOverlap is the overlap cardinality |Ft|: the number of files
	// the task needs that are already at the requesting worker's site.
	MetricOverlap Metric = iota + 1
	// MetricRest is 1/(|t|-|Ft|): the inverse of the number of files that
	// would still have to be transferred.
	MetricRest
	// MetricCombined is ref_t/totalRef + rest_t/totalRest: normalized past
	// references plus normalized rest (the paper's stated intent; its
	// typeset formula inverts the rest term, see MetricCombinedLiteral).
	MetricCombined
	// MetricCombinedLiteral is ref_t/totalRef + totalRest/rest_t, the
	// formula exactly as typeset in the paper. Kept for the ablation.
	MetricCombinedLiteral
)

func (m Metric) String() string {
	switch m {
	case MetricOverlap:
		return "overlap"
	case MetricRest:
		return "rest"
	case MetricCombined:
		return "combined"
	case MetricCombinedLiteral:
		return "combined-literal"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// Status is the outcome of a NextFor call.
type Status int

// NextFor outcomes.
const (
	// Assigned: the returned task is assigned to the worker.
	Assigned Status = iota + 1
	// Wait: nothing to run now, but work may appear (e.g. a replication
	// candidate after another worker progresses); ask again later.
	Wait
	// Done: the worker can exit; it will never receive another task.
	Done
)

// WorkerRef identifies a worker as (site index, worker index within site).
type WorkerRef struct {
	Site   int `json:"site"`
	Worker int `json:"worker"`
}

// Scheduler is the engine-facing contract shared by all strategies.
//
// The engine must call AttachSite for every site before the first NextFor,
// call NoteBatch after each data-server batch commit, and call
// OnTaskComplete when an execution finishes; the returned refs are
// outstanding replicas of the same task that should be interrupted.
// NoteBatch's slice arguments are only valid for the duration of the call
// — engines reuse the backing buffers across batches, so an
// implementation that needs the file lists later must copy them.
//
// Concurrency contract: implementations are not safe for concurrent use;
// the engine serializes access. The simulator is single-threaded; the
// gridschedd service (internal/service) makes every scheduler call under
// its one service lock.
type Scheduler interface {
	Name() string
	AttachSite(site int)
	NoteBatch(site int, batch, fetched, evicted []workload.FileID)
	NextFor(at WorkerRef) (workload.Task, Status)
	OnTaskComplete(id workload.TaskID, at WorkerRef) (cancel []WorkerRef)
	// OnExecutionFailed reports that the worker lost its execution of the
	// task (crash, overload eviction) without completing it. The
	// scheduler must make the task dispatchable again unless it has
	// already completed elsewhere.
	OnExecutionFailed(id workload.TaskID, at WorkerRef)
	// Remaining returns the number of tasks not yet completed.
	Remaining() int
}

// Replayer is optionally implemented by schedulers that a journal replay
// (internal/service recovery) drives with the recorded decision instead of
// asking NextFor itself: ReplayAssign forces the state transition NextFor
// performed when it assigned task id to the worker at ref.
//
// StorageAffinity needs it: its NextFor also advances per-worker queue
// cursors on calls that end in Wait; those probe calls are not journaled,
// so a re-asked NextFor could legally pick a different task than the
// recorded run did. WorkerCentric does not need it for exactness — its
// NextFor mutates state, including its RNG, only when it assigns, so
// re-asking along the assignment sequence reproduces every random draw,
// and outside a bulk replay its ReplayAssign is exactly that: NextFor, and
// an error unless it decides what was recorded. It implements the
// interface for BulkReplayer (replay.go), under which ReplayAssign commits
// the recorded decision without deciding.
//
// Schedulers that do not implement it are replayed (by the ReplayAssign
// function in replay.go) by calling NextFor and verifying the returned task
// — exact for Workqueue, whose only off-assignment mutation, popping
// completed retry entries, is order-insensitive.
type Replayer interface {
	ReplayAssign(id workload.TaskID, at WorkerRef) error
}

// fileIndex maps every file to the tasks referencing it, plus per-task file
// counts. It is shared by all site mirrors and cached per workload (the
// experiment harness constructs many schedulers over one workload;
// rebuilding the index dominated scheduler construction). Everything in it
// is immutable once set.
type fileIndex struct {
	byFile   [][]workload.TaskID // CSR views into one backing slice
	filesLen []int32             // per task: |files(t)|
	maxFiles int                 // max over tasks of |files(t)|

	// neighbours is nil until ShareIndex builds it, and it is built only
	// for a workload that many schedulers are about to share: building it
	// visits every (file of T, reader) pair of every task T once, which is
	// what one scheduler's whole life of per-file reference walks costs. A
	// sweep of dozens of schedulers over one workload gets that back many
	// times; a gridschedd job, whose workload has one scheduler and whose
	// restart has milliseconds, never would, so the service never asks.
	neighbours atomic.Pointer[neighbourTable]
}

// neighbour is one entry of a task T's row of the neighbour table: a task
// that shares files with T, and how many.
type neighbour struct {
	task   workload.TaskID
	shared int32 // |files(T) ∩ files(task)|
}

// neighbourTable holds, for every task T, the tasks that read any of T's
// files — T among them — each with the number of files shared (CSR: T's row
// is entries[start[T]:start[T+1]]). Within a row the tasks are in the order
// a walk of T's files and their readers first meets them.
type neighbourTable struct {
	start   []int32
	entries []neighbour
}

func newNeighbourTable(w *workload.Workload, idx *fileIndex) *neighbourTable {
	tab := &neighbourTable{start: make([]int32, len(w.Tasks)+1)}
	shared := make([]int32, len(w.Tasks)) // all zero between rows
	for i, t := range w.Tasks {
		row := len(tab.entries)
		for _, f := range t.Files {
			for _, r := range idx.byFile[f] {
				if shared[r] == 0 {
					tab.entries = append(tab.entries, neighbour{task: r})
				}
				shared[r]++
			}
		}
		for j := row; j < len(tab.entries); j++ {
			n := &tab.entries[j]
			n.shared, shared[n.task] = shared[n.task], 0
		}
		tab.start[i+1] = int32(len(tab.entries))
	}
	return tab
}

// neighboursOf returns the neighbour row of the task whose file list batch
// is, or nil when there is no table or batch is no task's file list. Tasks
// with the same file list have the same row, so whichever is found serves.
func (idx *fileIndex) neighboursOf(w *workload.Workload, batch []workload.FileID) []neighbour {
	tab := idx.neighbours.Load()
	if tab == nil || len(batch) == 0 {
		return nil
	}
	for _, t := range idx.byFile[batch[0]] {
		files := w.Tasks[t].Files
		// The engines pass the task's own slice; compare contents only when
		// the batch is some other slice of the right length.
		if len(files) == len(batch) && (&files[0] == &batch[0] || slices.Equal(files, batch)) {
			return tab.entries[tab.start[t]:tab.start[t+1]]
		}
	}
	return nil
}

// ShareIndex prepares w's file index for many schedulers at once: it builds
// the index's neighbour table (see fileIndex), which every WorkerCentric
// over w under a combined metric then uses to cut its NoteBatch cost, with
// no effect on any decision. A caller about to run a sweep of schedulers
// over one workload calls it once before the first; a caller that builds
// one scheduler per workload should not call it. It reports whether the
// index already carried the table.
func ShareIndex(w *workload.Workload) (already bool) {
	idx := indexFor(w)
	if idx.neighbours.Load() != nil {
		return true
	}
	idx.neighbours.CompareAndSwap(nil, newNeighbourTable(w, idx))
	return false
}

func newFileIndex(w *workload.Workload) *fileIndex {
	idx := &fileIndex{
		byFile:   make([][]workload.TaskID, w.NumFiles),
		filesLen: make([]int32, len(w.Tasks)),
	}
	counts := make([]int32, w.NumFiles)
	total := 0
	for _, t := range w.Tasks {
		idx.filesLen[t.ID] = int32(len(t.Files))
		if len(t.Files) > idx.maxFiles {
			idx.maxFiles = len(t.Files)
		}
		total += len(t.Files)
		for _, f := range t.Files {
			counts[f]++
		}
	}
	// One backing allocation (CSR layout): byFile[f] aliases flat.
	flat := make([]workload.TaskID, total)
	off := 0
	for f := range idx.byFile {
		idx.byFile[f] = flat[off : off : off+int(counts[f])]
		off += int(counts[f])
	}
	for _, t := range w.Tasks {
		for _, f := range t.Files {
			idx.byFile[f] = append(idx.byFile[f], t.ID)
		}
	}
	return idx
}

// fileIndexCache memoizes newFileIndex per workload (by pointer identity;
// workloads are documented immutable). A sweep constructs one scheduler per
// (algorithm, config, seed) cell over the same workload, so the cache turns
// dozens of index builds into one. Bounded, most-recently-used first. The
// workload key is held weakly and a GC cleanup prunes the entry (index
// included) once the workload is collected: a long-lived gridschedd
// submits a distinct workload per job, and strong retention would pin
// completed jobs' task lists and indexes in memory indefinitely.
var fileIndexCache struct {
	sync.Mutex
	entries []fileIndexCacheEntry
}

type fileIndexCacheEntry struct {
	w   weak.Pointer[workload.Workload]
	idx *fileIndex
}

const fileIndexCacheCap = 4

// indexFor returns w's file index, built at most once per cached workload.
// The build runs outside the cache's lock — it is milliseconds for a
// 6,000-task workload, and concurrent submits and a recovery's concurrent
// restores all come through here. Two goroutines that miss on the same
// workload at once both build; the second to insert finds the first's
// index and drops its own, so every scheduler over w shares one.
func indexFor(w *workload.Workload) *fileIndex {
	if idx := cachedIndex(w, nil); idx != nil {
		return idx
	}
	return cachedIndex(w, newFileIndex(w))
}

// cachedIndex returns w's cached index, moved to the front of the cache.
// On a miss it caches and returns built, or reports the miss as nil when
// there is nothing built to cache.
func cachedIndex(w *workload.Workload, built *fileIndex) *fileIndex {
	fileIndexCache.Lock()
	defer fileIndexCache.Unlock()
	entries := fileIndexCache.entries[:0]
	var hit *fileIndex
	for _, e := range fileIndexCache.entries {
		switch e.w.Value() {
		case nil: // workload collected; drop the entry and its index
		case w:
			hit = e.idx
		default:
			entries = append(entries, e)
		}
	}
	key := weak.Make(w)
	if hit == nil {
		if built == nil {
			fileIndexCache.entries = entries
			return nil
		}
		hit = built
		// One cleanup per cache entry generation: a cache hit refreshes an
		// entry whose creation already registered one.
		runtime.AddCleanup(w, dropDeadIndexEntry, key)
	}
	// Insert (or re-insert) at the front, bounded.
	if len(entries) >= fileIndexCacheCap {
		entries = entries[:fileIndexCacheCap-1]
	}
	entries = append(entries, fileIndexCacheEntry{})
	copy(entries[1:], entries)
	entries[0] = fileIndexCacheEntry{w: key, idx: hit}
	fileIndexCache.entries = entries
	return hit
}

// dropDeadIndexEntry runs after a cached workload is collected and evicts
// its (now unreachable) entry so the index does not linger until the next
// indexFor call.
func dropDeadIndexEntry(key weak.Pointer[workload.Workload]) {
	fileIndexCache.Lock()
	defer fileIndexCache.Unlock()
	entries := fileIndexCache.entries
	for i, e := range entries {
		if e.w == key {
			fileIndexCache.entries = append(entries[:i], entries[i+1:]...)
			return
		}
	}
}

// siteMirror is the scheduler's view of one site's storage: which files are
// resident, how often each file has been referenced there, and — maintained
// incrementally — each task's overlap cardinality and overlap-reference sum
// against that storage. All state is dense (indexed by file or task id);
// the maps of earlier revisions dominated NoteBatch cost.
//
// Invariants after every batch, for every task t (pending or not):
//
//	overlap[t] = |files(t) ∩ resident|
//	refSum[t]  = Σ_{f ∈ files(t) ∩ resident} refs[f]   (while trackRefs)
//
// trackRefs gates the refSum invariant: only the combined metrics ever
// read refSum, and maintaining it costs a full per-task fan-out on every
// batch file, so owners whose weight function ignores it (StorageAffinity,
// WorkerCentric under overlap/rest) build the mirror without it: refs and
// refSum are then nil. Such a mirror is updated by its owner, which has
// class structures to move with overlap (siteIndex.noteBatch,
// affinitySite.noteBatch). The tests' definition of a batch's effect on a
// mirror that tracks is siteMirror.noteBatch in golden_reference_test.go.
type siteMirror struct {
	idx       *fileIndex
	trackRefs bool
	resident  []bool  // per file
	refs      []int32 // per file: past references at this site
	overlap   []int32 // per task: |Ft|
	refSum    []int64 // per task: sum of refs over overlapping files
}

func newSiteMirror(idx *fileIndex, tasks int, trackRefs bool) *siteMirror {
	m := &siteMirror{
		idx:       idx,
		trackRefs: trackRefs,
		resident:  make([]bool, len(idx.byFile)),
		overlap:   make([]int32, tasks),
	}
	if trackRefs {
		m.refs = make([]int32, len(idx.byFile))
		m.refSum = make([]int64, tasks)
	}
	return m
}

// noteResidency applies one committed batch to the resident set and the
// reference counts alone, leaving overlap/refSum stale until recompute: what
// a bulk replay (replay.go) does per batch instead of the per-task fan-out.
func (m *siteMirror) noteResidency(batch, fetched, evicted []workload.FileID) {
	for _, f := range evicted {
		m.resident[f] = false
	}
	for _, f := range fetched {
		m.resident[f] = true
	}
	if m.trackRefs {
		for _, f := range batch {
			m.refs[f]++
		}
	}
}

// recompute restores the mirror's invariants from the resident set and the
// reference counts, in one pass over every task's files.
func (m *siteMirror) recompute(w *workload.Workload) {
	for id, t := range w.Tasks {
		var overlap int32
		var refSum int64
		for _, f := range t.Files {
			if m.resident[f] {
				overlap++
				if m.trackRefs {
					refSum += int64(m.refs[f])
				}
			}
		}
		m.overlap[id] = overlap
		if m.trackRefs {
			m.refSum[id] = refSum
		}
	}
}
