package core

import (
	"fmt"

	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// StorageAffinityConfig parameterizes the task-centric baseline.
type StorageAffinityConfig struct {
	Sites          int `json:"sites"`
	WorkersPerSite int `json:"workersPerSite"`
	// CapacityFiles bounds the virtual storage image used during initial
	// assignment; it should equal the simulated data servers' capacity so
	// the scheduler predicts eviction the way the real storage behaves.
	CapacityFiles int            `json:"capacityFiles"`
	Policy        storage.Policy `json:"policy"`
	// MaxReplicas caps concurrent executions of one task (initial run +
	// replicas). The paper replicates one task per idle worker without
	// stating a cap; 3 keeps tail replication useful without letting the
	// last task flood every idle worker.
	MaxReplicas int `json:"maxReplicas"`
}

// Validate checks the configuration.
func (c StorageAffinityConfig) Validate() error {
	switch {
	case c.Sites < 1:
		return fmt.Errorf("core: Sites = %d", c.Sites)
	case c.WorkersPerSite < 1:
		return fmt.Errorf("core: WorkersPerSite = %d", c.WorkersPerSite)
	case c.CapacityFiles < 1:
		return fmt.Errorf("core: CapacityFiles = %d", c.CapacityFiles)
	case c.MaxReplicas < 1:
		return fmt.Errorf("core: MaxReplicas = %d", c.MaxReplicas)
	}
	return nil
}

// StorageAffinity is the task-centric scheduler with data reuse and task
// replication (Santos-Neto et al. [14], as described in the paper's §3.1).
//
// At job start it walks the task list once, assigning each task to the site
// with maximum affinity — the overlap between the task's input set and a
// *virtual* storage image that accumulates the files of previously assigned
// tasks (bounded by the real capacity, so the prediction evicts like the
// real storage will). Within the chosen site, tasks go to the shortest
// worker queue. This up-front commitment is exactly what exposes the two
// task-centric problems the paper analyzes: queues can be unbalanced across
// sites, and the storage state at execution time may no longer match the
// state the decision was based on.
//
// When a worker runs dry it replicates: the scheduler picks the incomplete
// task with the highest affinity to the worker's site's *current* storage
// (below the replica cap) and hands out another execution; the first
// completion cancels the rest.
type StorageAffinity struct {
	cfg StorageAffinityConfig
	w   *workload.Workload
	idx *fileIndex

	assigned  bool
	queues    [][][]workload.TaskID // [site][worker] -> FIFO of task ids
	qHead     [][]int               // pop cursor per queue
	mirrors   map[int]*siteMirror
	running   map[workload.TaskID][]WorkerRef
	started   []bool // per task: some execution has begun
	home      []int  // per task: site of the initial assignment
	unstarted []int  // per site: assigned tasks not yet started anywhere
	completed []bool
	remaining int
}

var (
	_ Scheduler = (*StorageAffinity)(nil)
	_ Replayer  = (*StorageAffinity)(nil)
)

// NewStorageAffinity builds the baseline scheduler.
func NewStorageAffinity(w *workload.Workload, cfg StorageAffinityConfig) (*StorageAffinity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &StorageAffinity{
		cfg:       cfg,
		w:         w,
		idx:       indexFor(w),
		queues:    make([][][]workload.TaskID, cfg.Sites),
		qHead:     make([][]int, cfg.Sites),
		mirrors:   make(map[int]*siteMirror),
		running:   make(map[workload.TaskID][]WorkerRef),
		started:   make([]bool, len(w.Tasks)),
		home:      make([]int, len(w.Tasks)),
		unstarted: make([]int, cfg.Sites),
		completed: make([]bool, len(w.Tasks)),
		remaining: len(w.Tasks),
	}
	for site := range s.queues {
		s.queues[site] = make([][]workload.TaskID, cfg.WorkersPerSite)
		s.qHead[site] = make([]int, cfg.WorkersPerSite)
	}
	return s, nil
}

// Name implements Scheduler.
func (s *StorageAffinity) Name() string { return "storage-affinity" }

// AttachSite implements Scheduler.
func (s *StorageAffinity) AttachSite(site int) {
	if site < 0 || site >= s.cfg.Sites {
		panic(fmt.Sprintf("core: AttachSite(%d) outside configured %d sites", site, s.cfg.Sites))
	}
	if _, ok := s.mirrors[site]; !ok {
		m := newSiteMirror(s.idx, len(s.w.Tasks))
		m.trackRefs = false // affinity weighs overlap only, never refSum
		s.mirrors[site] = m
	}
}

// NoteBatch implements Scheduler.
func (s *StorageAffinity) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	m, ok := s.mirrors[site]
	if !ok {
		panic(fmt.Sprintf("core: NoteBatch for unattached site %d", site))
	}
	m.noteBatch(batch, fetched, evicted)
}

// Remaining implements Scheduler.
func (s *StorageAffinity) Remaining() int { return s.remaining }

// initialAssign performs the one-shot task-centric assignment pass.
//
// The paper says storage affinity "first distributes its tasks according to
// the overlap cardinality" (§3.1) without fixing the distribution order. A
// naive single pass over tasks on cold storage degenerates: once site 0
// holds task 0's files, every subsequent spatial neighbor prefers site 0
// and the whole job lands on one site — which contradicts the competitive
// makespans the paper reports for the baseline. We therefore use a draft:
// sites take turns picking their highest-affinity unassigned task, each
// against a *virtual* storage image (bounded by the real capacity, so the
// prediction evicts like the real storage will). The assignment is still
// committed entirely up front on predicted content — which is exactly what
// exposes the premature-decision problem at small capacities — while task
// counts stay balanced. See DESIGN.md ("Storage affinity details").
func (s *StorageAffinity) initialAssign() error {
	images := make([]*storage.Store, s.cfg.Sites)
	mirrors := make([]*siteMirror, s.cfg.Sites)
	for i := range images {
		img, err := storage.New(s.cfg.CapacityFiles, s.cfg.Policy)
		if err != nil {
			return err
		}
		images[i] = img
		mirrors[i] = newSiteMirror(s.idx, len(s.w.Tasks))
		mirrors[i].trackRefs = false // virtual image: overlap only
	}
	unassigned := len(s.w.Tasks)
	taken := make([]bool, len(s.w.Tasks))
	nextWorker := make([]int, s.cfg.Sites)
	stripe := (len(s.w.Tasks) + s.cfg.Sites - 1) / s.cfg.Sites
	for site := 0; unassigned > 0; site = (site + 1) % s.cfg.Sites {
		// Draft the highest-affinity unassigned task for this site; ties
		// go to the lowest task id.
		best := -1
		bestAff := int32(-1)
		for id := range taken {
			if !taken[id] {
				if aff := mirrors[site].overlap[id]; aff > bestAff {
					best, bestAff = id, aff
				}
			}
		}
		if bestAff == 0 {
			// Nothing this site holds is useful (cold storage or its
			// region is exhausted). Seeding every such pick at the head
			// of the task list would herd all sites onto one region of a
			// spatially ordered workload; start each site in its own
			// stripe of the task list instead.
			best = -1
			for off := 0; off < len(taken); off++ {
				id := (site*stripe + off) % len(taken)
				if !taken[id] {
					best = id
					break
				}
			}
		}
		t := s.w.Tasks[best]
		taken[best] = true
		unassigned--
		fetched, evicted, err := images[site].CommitBatch(t.Files)
		if err != nil {
			return fmt.Errorf("core: virtual storage: %w", err)
		}
		mirrors[site].noteBatch(t.Files, fetched, evicted)
		// Round-robin across the site's workers (queues stay balanced in
		// count; runtime imbalance is what replication later absorbs).
		wq := nextWorker[site]
		nextWorker[site] = (wq + 1) % s.cfg.WorkersPerSite
		s.queues[site][wq] = append(s.queues[site][wq], t.ID)
		s.home[t.ID] = site
		s.unstarted[site]++
	}
	return nil
}

// markStarted records the first execution of a task.
func (s *StorageAffinity) markStarted(id workload.TaskID) {
	if !s.started[id] {
		s.started[id] = true
		s.unstarted[s.home[id]]--
	}
}

// NextFor implements Scheduler: drain the worker's own queue; when dry,
// replicate the highest-affinity incomplete task.
func (s *StorageAffinity) NextFor(at WorkerRef) (workload.Task, Status) {
	if !s.assigned {
		if err := s.initialAssign(); err != nil {
			panic(err) // configuration bug (capacity < max task size) surfaced at first request
		}
		s.assigned = true
	}
	if at.Site < 0 || at.Site >= s.cfg.Sites || at.Worker < 0 || at.Worker >= s.cfg.WorkersPerSite {
		panic(fmt.Sprintf("core: NextFor(%+v) outside configured pool", at))
	}
	q := s.queues[at.Site][at.Worker]
	for s.qHead[at.Site][at.Worker] < len(q) {
		id := q[s.qHead[at.Site][at.Worker]]
		s.qHead[at.Site][at.Worker]++
		if s.completed[id] {
			continue
		}
		if s.started[id] && len(s.running[id]) >= s.cfg.MaxReplicas {
			// Stolen by other sites up to the replica cap; leave it to
			// them rather than pile on another execution.
			continue
		}
		s.markStarted(id)
		s.running[id] = append(s.running[id], at)
		return s.w.Tasks[id], Assigned
	}
	return s.replicate(at)
}

// replicate serves an idle worker whose own queue is drained, in two steps
// ("the scheduler picks a task already assigned to a worker and replicates
// it to the idle worker", §3.1):
//
//  1. Steal an *unstarted* queued task — preferring maximum affinity to
//     the idle worker's storage, and when nothing overlaps, the deepest
//     queued task of the most backlogged site. Stealing duplicates no
//     work: when the home worker later reaches the entry it skips it.
//  2. Only when every incomplete task is already running, replicate a
//     running execution (capped by MaxReplicas); the first completion
//     cancels the rest.
func (s *StorageAffinity) replicate(at WorkerRef) (workload.Task, Status) {
	if s.remaining == 0 {
		return workload.Task{}, Done
	}
	m := s.mirrors[at.Site]
	if m == nil {
		panic(fmt.Sprintf("core: replicate for unattached site %d", at.Site))
	}

	// Step 1: steal an unstarted task.
	bestID := workload.TaskID(-1)
	bestAff := int32(0) // require positive affinity to steal by locality
	for id := range s.completed {
		if s.completed[id] || s.started[id] {
			continue
		}
		if m.overlap[id] > bestAff {
			bestAff = m.overlap[id]
			bestID = workload.TaskID(id)
		}
	}
	if bestID < 0 {
		bestID = s.stealFromBacklog()
	}
	if bestID >= 0 {
		s.markStarted(bestID)
		s.running[bestID] = append(s.running[bestID], at)
		return s.w.Tasks[bestID], Assigned
	}

	// Step 2: replicate a running task.
	bestID, bestAff = -1, -1
	for id := range s.completed {
		tid := workload.TaskID(id)
		if s.completed[id] {
			continue
		}
		if len(s.running[tid]) >= s.cfg.MaxReplicas {
			continue
		}
		if s.alreadyRunningAt(tid, at) {
			continue
		}
		if m.overlap[id] > bestAff {
			bestAff = m.overlap[id]
			bestID = tid
		}
	}
	if bestID < 0 {
		// Every incomplete task is saturated with replicas; stay around in
		// case a replica slot frees up.
		return workload.Task{}, Wait
	}
	s.running[bestID] = append(s.running[bestID], at)
	return s.w.Tasks[bestID], Assigned
}

// stealFromBacklog picks the deepest unstarted queue entry at the site
// with the most unstarted tasks (classic work stealing: take from the
// tail, far from where the victim is working).
func (s *StorageAffinity) stealFromBacklog() workload.TaskID {
	victim := -1
	for site := range s.unstarted {
		if s.unstarted[site] > 0 && (victim < 0 || s.unstarted[site] > s.unstarted[victim]) {
			victim = site
		}
	}
	if victim < 0 {
		return -1
	}
	best := workload.TaskID(-1)
	bestDepth := -1
	for wi := 0; wi < s.cfg.WorkersPerSite; wi++ {
		q := s.queues[victim][wi]
		for pos := len(q) - 1; pos >= s.qHead[victim][wi]; pos-- {
			id := q[pos]
			if s.completed[id] || s.started[id] {
				continue
			}
			if depth := pos - s.qHead[victim][wi]; depth > bestDepth {
				bestDepth = depth
				best = id
			}
			break // only the deepest unstarted entry per queue
		}
	}
	return best
}

func (s *StorageAffinity) alreadyRunningAt(id workload.TaskID, at WorkerRef) bool {
	for _, ref := range s.running[id] {
		if ref == at {
			return true
		}
	}
	return false
}

// ReplayAssign implements Replayer: force the assignment of task id to the
// worker at ref, reproducing what NextFor did when the assignment was first
// made (journal recovery, internal/service).
//
// The own-queue scan mirrors NextFor: entries ahead of id that NextFor
// would have skipped (completed, or started and replica-capped) are
// consumed so the cursor converges to the original run's position. The
// cursor may still lag it — NextFor also consumes skippable entries on
// calls that end in Wait, and those probes are not journaled — so when id
// is not reachable over currently-skippable entries the assignment is
// applied as a steal/replica instead, leaving the queue untouched. The
// divergence is bounded to the cursor: a left-behind entry is either
// consumed later by the same skips the original run made, or re-dispatched
// as a legal extra replica; completed entries are always skipped. Pending
// membership, the running set, and the completion set — everything the
// dispatch weights read — replay exactly.
func (s *StorageAffinity) ReplayAssign(id workload.TaskID, at WorkerRef) error {
	if !s.assigned {
		if err := s.initialAssign(); err != nil {
			return err
		}
		s.assigned = true
	}
	if at.Site < 0 || at.Site >= s.cfg.Sites || at.Worker < 0 || at.Worker >= s.cfg.WorkersPerSite {
		return fmt.Errorf("core: replay assign %d at %+v outside configured pool", id, at)
	}
	if int(id) < 0 || int(id) >= len(s.w.Tasks) {
		return fmt.Errorf("core: replay assign unknown task %d", id)
	}
	if s.completed[id] {
		return fmt.Errorf("core: replay assign of completed task %d", id)
	}
	q := s.queues[at.Site][at.Worker]
	head := &s.qHead[at.Site][at.Worker]
	for *head < len(q) {
		qid := q[*head]
		if qid == id {
			*head++
			break
		}
		if s.completed[qid] || (s.started[qid] && len(s.running[qid]) >= s.cfg.MaxReplicas) {
			*head++
			continue
		}
		break // blocked by a live entry: the dispatch was a steal/replica
	}
	s.markStarted(id)
	s.running[id] = append(s.running[id], at)
	return nil
}

// OnExecutionFailed implements Scheduler: the failed execution leaves the
// running set; if it was the last one, the task is requeued at its home
// site and becomes stealable again.
func (s *StorageAffinity) OnExecutionFailed(id workload.TaskID, at WorkerRef) {
	if s.completed[id] {
		return
	}
	execs := s.running[id]
	kept := execs[:0]
	for _, ref := range execs {
		if ref != at {
			kept = append(kept, ref)
		}
	}
	if len(kept) > 0 {
		s.running[id] = kept
		return
	}
	delete(s.running, id)
	if s.started[id] {
		s.started[id] = false
		s.unstarted[s.home[id]]++
	}
	// Fresh queue entry at the home site's shortest queue (the original
	// entry was already consumed or may be double-skipped harmlessly).
	home := s.home[id]
	wq := 0
	for wi := 1; wi < s.cfg.WorkersPerSite; wi++ {
		if len(s.queues[home][wi])-s.qHead[home][wi] < len(s.queues[home][wq])-s.qHead[home][wq] {
			wq = wi
		}
	}
	s.queues[home][wq] = append(s.queues[home][wq], id)
}

// OnTaskComplete implements Scheduler: the first finisher completes the
// task and every other outstanding execution is returned for cancellation.
func (s *StorageAffinity) OnTaskComplete(id workload.TaskID, at WorkerRef) []WorkerRef {
	execs := s.running[id]
	// Drop the completer from the running set.
	var cancel []WorkerRef
	for _, ref := range execs {
		if ref != at {
			cancel = append(cancel, ref)
		}
	}
	delete(s.running, id)
	if !s.completed[id] {
		s.completed[id] = true
		s.remaining--
	}
	return cancel
}
