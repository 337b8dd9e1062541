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
//
// No decision scans the task list. Every "highest affinity, ties to the
// lowest task id" query is read off an affinitySite, which files the tasks
// the query ranges over in classes by their overlap with the site:
//
//   - the draft's virtual sites file the tasks no site has drafted yet; a
//     pick is the lowest id of the highest non-empty class — or, when that
//     class is 0, the first undrafted id from the site's stripe on — and
//     leaves every site's classes;
//   - the attached sites file the tasks that are unstarted and incomplete,
//     which is what a steal ranges over: a start or a completion takes the
//     task out of every site's classes, a failure of its last execution
//     files it again under the overlap it has by then, and a site attached
//     late files what is unstarted at that moment;
//   - replicating a running task accepts affinity 0, so it ranges over the
//     incomplete bitset directly — by the time every incomplete task is
//     running that is a handful.
//
// The scan these replace lives on as the test-only naiveStorageAffinity,
// which the differential test holds this implementation to, decision for
// decision.
type StorageAffinity struct {
	cfg StorageAffinityConfig
	w   *workload.Workload
	idx *fileIndex

	assigned   bool
	queues     [][][]workload.TaskID // [site][worker] -> FIFO of task ids
	qHead      [][]int               // pop cursor per queue
	sites      []*affinitySite       // per configured site; nil until attached
	running    map[workload.TaskID][]WorkerRef
	started    []bool // per task: some execution has begun
	home       []int  // per task: site of the initial assignment
	unstarted  []int  // per site: assigned tasks not yet started anywhere
	completed  []bool
	incomplete bitset // the complement of completed
	remaining  int
}

var (
	_ Scheduler = (*StorageAffinity)(nil)
	_ Replayer  = (*StorageAffinity)(nil)
)

// affinitySite is one site's storage as StorageAffinity weighs it — the
// virtual image of a drafting site, or the mirror of an attached one — with
// the tasks a decision there may pick filed by affinity.
//
// Invariant, after every call: t is a member of class m.overlap[t] iff the
// owner counts it pickable (see StorageAffinity), and of no class otherwise.
type affinitySite struct {
	m       *siteMirror // overlap only: affinity never weighs references
	members classSets
	moved   []workload.TaskID // scratch of noteBatch
}

func newAffinitySite(idx *fileIndex, tasks int) *affinitySite {
	return &affinitySite{
		m:       newSiteMirror(idx, tasks, false),
		members: newClassSets(idx.maxFiles+1, tasks),
	}
}

// file makes t pickable at the site, under its current overlap.
func (a *affinitySite) file(t workload.TaskID) { a.members.add(int(a.m.overlap[t]), t) }

// drop ends t's being pickable at the site.
func (a *affinitySite) drop(t workload.TaskID) { a.members.remove(int(a.m.overlap[t]), t) }

// best returns the pickable task with the highest affinity, ties to the
// lowest id, and that affinity; (-1, -1) when nothing is pickable.
func (a *affinitySite) best() (workload.TaskID, int) {
	c := a.members.maxClass()
	if c < 0 {
		return -1, -1
	}
	return a.members.firstFrom(c, 0), c
}

// noteBatch applies one committed batch's storage events to the mirror's
// overlaps and keeps every member in the class of its overlap. A member
// leaves its class the first time the batch reaches it and is filed again
// once the batch is through: one dispatched task's files share most of
// their readers, so a member is reached many times and moved once.
func (a *affinitySite) noteBatch(fetched, evicted []workload.FileID) {
	m := a.m
	for _, f := range evicted {
		if !m.resident[f] {
			continue
		}
		m.resident[f] = false
		for _, t := range m.idx.byFile[f] {
			a.lift(t)
			m.overlap[t]--
		}
	}
	for _, f := range fetched {
		if m.resident[f] {
			continue
		}
		m.resident[f] = true
		for _, t := range m.idx.byFile[f] {
			a.lift(t)
			m.overlap[t]++
		}
	}
	for _, t := range a.moved {
		a.file(t)
	}
	a.moved = a.moved[:0]
}

// lift takes t out of its class, if it is in one, until the end of the
// batch.
func (a *affinitySite) lift(t workload.TaskID) {
	if c := int(a.m.overlap[t]); a.members.has(c, t) {
		a.members.remove(c, t)
		a.moved = append(a.moved, t)
	}
}

// NewStorageAffinity builds the baseline scheduler.
func NewStorageAffinity(w *workload.Workload, cfg StorageAffinityConfig) (*StorageAffinity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &StorageAffinity{
		cfg:        cfg,
		w:          w,
		idx:        indexFor(w),
		queues:     make([][][]workload.TaskID, cfg.Sites),
		qHead:      make([][]int, cfg.Sites),
		sites:      make([]*affinitySite, cfg.Sites),
		running:    make(map[workload.TaskID][]WorkerRef),
		started:    make([]bool, len(w.Tasks)),
		home:       make([]int, len(w.Tasks)),
		unstarted:  make([]int, cfg.Sites),
		completed:  make([]bool, len(w.Tasks)),
		incomplete: newBitset(len(w.Tasks)),
		remaining:  len(w.Tasks),
	}
	for site := range s.queues {
		s.queues[site] = make([][]workload.TaskID, cfg.WorkersPerSite)
		s.qHead[site] = make([]int, cfg.WorkersPerSite)
	}
	for id := range w.Tasks {
		s.incomplete.set(id)
	}
	return s, nil
}

// Name implements Scheduler.
func (s *StorageAffinity) Name() string { return "storage-affinity" }

// AttachSite implements Scheduler. The new site's storage is empty, so what
// is unstarted now is filed under affinity 0.
func (s *StorageAffinity) AttachSite(site int) {
	if site < 0 || site >= s.cfg.Sites {
		panic(fmt.Sprintf("core: AttachSite(%d) outside configured %d sites", site, s.cfg.Sites))
	}
	if s.sites[site] != nil {
		return
	}
	a := newAffinitySite(s.idx, len(s.w.Tasks))
	for id, started := range s.started {
		if !started && !s.completed[id] {
			a.file(workload.TaskID(id))
		}
	}
	s.sites[site] = a
}

// NoteBatch implements Scheduler.
func (s *StorageAffinity) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	if site < 0 || site >= len(s.sites) || s.sites[site] == nil {
		panic(fmt.Sprintf("core: NoteBatch for unattached site %d", site))
	}
	s.sites[site].noteBatch(fetched, evicted)
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
// counts stay balanced.
func (s *StorageAffinity) initialAssign() error {
	images := make([]*storage.Store, s.cfg.Sites)
	drafting := make([]*affinitySite, s.cfg.Sites)
	for i := range images {
		img, err := storage.New(s.cfg.CapacityFiles, s.cfg.Policy)
		if err != nil {
			return err
		}
		img.Reserve(s.w.NumFiles)
		images[i] = img
		drafting[i] = newAffinitySite(s.idx, len(s.w.Tasks))
		for id := range s.w.Tasks {
			drafting[i].file(workload.TaskID(id))
		}
	}
	var fetched, evicted []workload.FileID
	nextWorker := make([]int, s.cfg.Sites)
	stripe := (len(s.w.Tasks) + s.cfg.Sites - 1) / s.cfg.Sites
	site := 0
	for range s.w.Tasks { // one pick per task
		// Draft the highest-affinity undrafted task for this site; ties go
		// to the lowest task id.
		best, aff := drafting[site].best()
		if aff == 0 {
			// Nothing this site holds is useful (cold storage or its
			// region is exhausted). Seeding every such pick at the head
			// of the task list would herd all sites onto one region of a
			// spatially ordered workload; start each site in its own
			// stripe of the task list instead. Every undrafted task is in
			// class 0 here, so the class's next member is the next
			// undrafted id.
			best = drafting[site].members.firstFrom(0, site*stripe%len(s.w.Tasks))
		}
		for _, a := range drafting {
			a.drop(best)
		}
		t := s.w.Tasks[best]
		var err error
		fetched, evicted, err = images[site].CommitBatchInto(t.Files, fetched[:0], evicted[:0])
		if err != nil {
			return fmt.Errorf("core: virtual storage: %w", err)
		}
		drafting[site].noteBatch(fetched, evicted)
		// Round-robin across the site's workers (queues stay balanced in
		// count; runtime imbalance is what replication later absorbs).
		wq := nextWorker[site]
		nextWorker[site] = (wq + 1) % s.cfg.WorkersPerSite
		s.queues[site][wq] = append(s.queues[site][wq], t.ID)
		s.home[t.ID] = site
		s.unstarted[site]++
		site = (site + 1) % s.cfg.Sites
	}
	return nil
}

// eachSite files or drops t at every attached site.
func (s *StorageAffinity) eachSite(do func(*affinitySite, workload.TaskID), t workload.TaskID) {
	for _, a := range s.sites {
		if a != nil {
			do(a, t)
		}
	}
}

// markStarted records the first execution of a task.
func (s *StorageAffinity) markStarted(id workload.TaskID) {
	if !s.started[id] {
		s.started[id] = true
		s.unstarted[s.home[id]]--
		s.eachSite((*affinitySite).drop, id)
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
//     the idle worker's storage (positive: ties to the lowest id), and when
//     nothing overlaps, the deepest queued task of the most backlogged
//     site. The stolen task's queue entry stays where it is: when its home
//     worker reaches it, NextFor skips it if the task is complete or already
//     running at the replica cap, and otherwise runs it there too, as one
//     more replica.
//  2. Only when every incomplete task is already running, replicate a
//     running execution (capped by MaxReplicas, never onto the worker that
//     already runs it; highest affinity, 0 included, ties to the lowest
//     id); the first completion cancels the rest.
func (s *StorageAffinity) replicate(at WorkerRef) (workload.Task, Status) {
	if s.remaining == 0 {
		return workload.Task{}, Done
	}
	a := s.sites[at.Site]
	if a == nil {
		panic(fmt.Sprintf("core: replicate for unattached site %d", at.Site))
	}

	// Step 1: steal an unstarted task.
	bestID, aff := a.best()
	if aff <= 0 { // require positive affinity to steal by locality
		bestID = s.stealFromBacklog()
	}
	if bestID >= 0 {
		s.markStarted(bestID)
		s.running[bestID] = append(s.running[bestID], at)
		return s.w.Tasks[bestID], Assigned
	}

	// Step 2: replicate a running task.
	bestID = -1
	bestAff := int32(-1)
	for id := s.incomplete.next(0); id >= 0; id = s.incomplete.next(id + 1) {
		tid := workload.TaskID(id)
		if len(s.running[tid]) >= s.cfg.MaxReplicas {
			continue
		}
		if s.alreadyRunningAt(tid, at) {
			continue
		}
		if a.m.overlap[id] > bestAff {
			bestAff = a.m.overlap[id]
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
		s.eachSite((*affinitySite).file, id)
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
		s.incomplete.unset(int(id))
		s.remaining--
		if !s.started[id] {
			s.eachSite((*affinitySite).drop, id)
		}
	}
	return cancel
}
