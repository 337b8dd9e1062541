package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// This file keeps StorageAffinity as it decided before its queries were
// read off per-site overlap classes — every draft pick, steal and replica a
// scan of the task list over plain mirrors — as a test-only reference, and
// holds the class-based implementation to it: the same queues and home
// sites out of the draft, the same (task, status) for every request, the
// same cancellations, with the classes' invariants checked after every
// step.

// naiveStorageAffinity is the reference implementation.
type naiveStorageAffinity struct {
	cfg StorageAffinityConfig
	w   *workload.Workload
	idx *fileIndex

	assigned  bool
	queues    [][][]workload.TaskID
	qHead     [][]int
	mirrors   map[int]*siteMirror
	running   map[workload.TaskID][]WorkerRef
	started   []bool
	home      []int
	unstarted []int
	completed []bool
	remaining int
}

func newNaiveStorageAffinity(w *workload.Workload, cfg StorageAffinityConfig) (*naiveStorageAffinity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &naiveStorageAffinity{
		cfg:       cfg,
		w:         w,
		idx:       newFileIndex(w),
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

func (s *naiveStorageAffinity) AttachSite(site int) {
	if _, ok := s.mirrors[site]; !ok {
		s.mirrors[site] = newSiteMirror(s.idx, len(s.w.Tasks), true)
	}
}

func (s *naiveStorageAffinity) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	s.mirrors[site].noteBatch(batch, fetched, evicted)
}

func (s *naiveStorageAffinity) Remaining() int { return s.remaining }

// initialAssign is the draft as a scan: every pick reads every task.
func (s *naiveStorageAffinity) initialAssign() error {
	images := make([]*storage.Store, s.cfg.Sites)
	mirrors := make([]*siteMirror, s.cfg.Sites)
	for i := range images {
		img, err := storage.New(s.cfg.CapacityFiles, s.cfg.Policy)
		if err != nil {
			return err
		}
		images[i] = img
		mirrors[i] = newSiteMirror(s.idx, len(s.w.Tasks), true)
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
		fetched, evicted, err := images[site].CommitBatchInto(t.Files, nil, nil)
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
func (s *naiveStorageAffinity) markStarted(id workload.TaskID) {
	if !s.started[id] {
		s.started[id] = true
		s.unstarted[s.home[id]]--
	}
}
func (s *naiveStorageAffinity) NextFor(at WorkerRef) (workload.Task, Status) {
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

// replicate is the two-step scan: steal the unstarted task of highest
// positive affinity (else from the deepest backlog), else replicate the
// incomplete task of highest affinity below the replica cap.
func (s *naiveStorageAffinity) replicate(at WorkerRef) (workload.Task, Status) {
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
func (s *naiveStorageAffinity) stealFromBacklog() workload.TaskID {
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

func (s *naiveStorageAffinity) alreadyRunningAt(id workload.TaskID, at WorkerRef) bool {
	for _, ref := range s.running[id] {
		if ref == at {
			return true
		}
	}
	return false
}

// ReplayAssign is StorageAffinity.ReplayAssign, which scans nothing.
func (s *naiveStorageAffinity) ReplayAssign(id workload.TaskID, at WorkerRef) error {
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
func (s *naiveStorageAffinity) OnExecutionFailed(id workload.TaskID, at WorkerRef) {
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
func (s *naiveStorageAffinity) OnTaskComplete(id workload.TaskID, at WorkerRef) []WorkerRef {
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

// checkAffinityInvariants recomputes what a StorageAffinity maintains
// incrementally and fails on the first disagreement: at every attached
// site, overlap from the resident set, and the classes — t a member iff it
// is unstarted and incomplete, in the class its overlap names and no other,
// class counts and the non-empty mask equal to what the bitsets hold — and
// the incomplete bitset against the completion flags.
func checkAffinityInvariants(t testing.TB, s *StorageAffinity) {
	t.Helper()
	for id, done := range s.completed {
		if s.incomplete.has(id) == done {
			t.Fatalf("task %d: completed = %v, incomplete bit = %v", id, done, !done)
		}
	}
	for site, a := range s.sites {
		if a == nil {
			continue // not attached yet
		}
		if len(a.moved) != 0 {
			t.Fatalf("site %d: %d tasks left lifted between batches", site, len(a.moved))
		}
		if a.m.refs != nil || a.m.refSum != nil {
			t.Fatalf("site %d: reference arrays allocated for a scheduler that never reads them", site)
		}
		pickables := 0
		for id, task := range s.w.Tasks {
			var overlap int32
			for _, f := range task.Files {
				if a.m.resident[f] {
					overlap++
				}
			}
			if a.m.overlap[id] != overlap {
				t.Fatalf("site %d task %d: overlap %d, recomputed %d", site, id, a.m.overlap[id], overlap)
			}
			pickable := !s.started[id] && !s.completed[id]
			if a.members.has(int(overlap), workload.TaskID(id)) != pickable {
				t.Fatalf("site %d task %d: pickable %v, member of class %d (its overlap) = %v", site, id, pickable, overlap, !pickable)
			}
			if pickable {
				pickables++
			}
		}
		filed := 0
		for c, set := range a.members.sets {
			n := 0
			for id := set.next(0); id >= 0; id = set.next(id + 1) {
				n++
			}
			filed += n
			if int(a.members.counts[c]) != n {
				t.Fatalf("site %d class %d: count %d, %d bits set", site, c, a.members.counts[c], n)
			}
			if a.members.nonEmpty.has(c) != (n > 0) {
				t.Fatalf("site %d class %d: non-empty bit %v, population %d", site, c, a.members.nonEmpty.has(c), n)
			}
		}
		// Every pickable task is in the class of its overlap, so anything
		// more is a task filed where its overlap does not say.
		if filed != pickables {
			t.Fatalf("site %d: %d tasks filed, %d pickable", site, filed, pickables)
		}
	}
}

// TestStorageAffinityMatchesNaiveScan drives StorageAffinity and the
// scanning reference in lockstep over seeded runs — 1 to 12 sites of 1 to 3
// workers, replica caps 1 to 3, stores that evict on every batch and stores
// that never do — with real LRU stores feeding NoteBatch, requests from
// every worker (Wait polls included), completions with their cancellations,
// lost executions, forced assignments through ReplayAssign, and one site
// attached only after a third of the tasks are done.
func TestStorageAffinityMatchesNaiveScan(t *testing.T) {
	for seed := int64(1); seed <= 36; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			drv := rand.New(rand.NewSource(seed * 6151))
			gen := workload.CoaddSmallConfig(seed)
			gen.Tasks = 30 + drv.Intn(130)
			w, err := workload.GenerateCoadd(gen)
			if err != nil {
				t.Fatal(err)
			}
			maxFiles := newFileIndex(w).maxFiles
			cfg := StorageAffinityConfig{
				Sites:          1 + drv.Intn(12),
				WorkersPerSite: 1 + drv.Intn(3),
				CapacityFiles:  maxFiles + drv.Intn(maxFiles), // evicts on nearly every batch
				Policy:         storage.LRU,
				MaxReplicas:    1 + drv.Intn(3),
			}
			if seed%3 == 0 {
				cfg.CapacityFiles = w.NumFiles // never evicts
			}
			opt, err := NewStorageAffinity(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newNaiveStorageAffinity(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The last site joins late, when there is more than one.
			late := -1
			if cfg.Sites > 1 {
				late = cfg.Sites - 1
			}
			stores := make([]*storage.Store, cfg.Sites)
			for i := range stores {
				if stores[i], err = storage.New(cfg.CapacityFiles, cfg.Policy); err != nil {
					t.Fatal(err)
				}
				if i != late {
					opt.AttachSite(i)
					ref.AttachSite(i)
				}
			}
			checkAffinityInvariants(t, opt)

			type exec struct {
				task workload.TaskID
				at   WorkerRef
			}
			var running []exec
			started := func(task workload.Task, at WorkerRef) {
				fetched, evicted, err := stores[at.Site].CommitBatchInto(task.Files, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				opt.NoteBatch(at.Site, task.Files, fetched, evicted)
				ref.NoteBatch(at.Site, task.Files, fetched, evicted)
				running = append(running, exec{task.ID, at})
			}
			requests, waits := 0, 0
			for step := 0; opt.Remaining() > 0 || ref.Remaining() > 0; step++ {
				if step > 200*len(w.Tasks) {
					t.Fatalf("no end in sight: %d tasks remain after %d steps", opt.Remaining(), step)
				}
				if late >= 0 && opt.sites[late] == nil && opt.Remaining() < len(w.Tasks)*2/3 {
					opt.AttachSite(late)
					ref.AttachSite(late)
				}
				at := WorkerRef{Site: drv.Intn(cfg.Sites), Worker: drv.Intn(cfg.WorkersPerSite)}
				if opt.sites[at.Site] == nil {
					at.Site = 0
				}
				switch k := drv.Intn(20); {
				case k < 10 || len(running) == 0:
					got, gs := opt.NextFor(at)
					want, ws := ref.NextFor(at)
					if gs != ws || got.ID != want.ID {
						t.Fatalf("step %d at %+v: classes (%v, task %d), scan (%v, task %d)", step, at, gs, got.ID, ws, want.ID)
					}
					if requests++; requests == 1 {
						if !slices.EqualFunc(opt.queues, ref.queues, func(a, b [][]workload.TaskID) bool {
							return slices.EqualFunc(a, b, slices.Equal[[]workload.TaskID])
						}) || !slices.Equal(opt.home, ref.home) {
							t.Fatalf("the drafts differ:\nclasses %v\nscan    %v", opt.queues, ref.queues)
						}
					}
					switch gs {
					case Assigned:
						started(got, at)
					case Wait:
						waits++
					}
				case k == 10:
					// A recorded decision forced on both, as recovery does.
					id := workload.TaskID(opt.incomplete.next(drv.Intn(len(w.Tasks))))
					if id < 0 {
						break
					}
					if eo, er := opt.ReplayAssign(id, at), ref.ReplayAssign(id, at); eo != nil || er != nil {
						t.Fatalf("step %d: ReplayAssign(%d, %+v): classes %v, scan %v", step, id, at, eo, er)
					}
					started(w.Tasks[id], at)
				default:
					i := drv.Intn(len(running))
					e := running[i]
					running = append(running[:i], running[i+1:]...)
					if k < 14 {
						opt.OnExecutionFailed(e.task, e.at)
						ref.OnExecutionFailed(e.task, e.at)
						break
					}
					co, cr := opt.OnTaskComplete(e.task, e.at), ref.OnTaskComplete(e.task, e.at)
					if !slices.Equal(co, cr) {
						t.Fatalf("step %d: completing task %d cancels %v, the scan's %v", step, e.task, co, cr)
					}
					running = slices.DeleteFunc(running, func(r exec) bool { return r.task == e.task })
				}
				checkAffinityInvariants(t, opt)
				if !slices.Equal(opt.started, ref.started) || !slices.Equal(opt.completed, ref.completed) ||
					!slices.Equal(opt.unstarted, ref.unstarted) || !slices.EqualFunc(opt.qHead, ref.qHead, slices.Equal[[]int]) {
					t.Fatalf("step %d: started/completed/unstarted/cursors differ from the scan's", step)
				}
			}
			if _, st := opt.NextFor(WorkerRef{}); st != Done {
				t.Fatalf("status %v after the last completion, want Done", st)
			}
			t.Logf("%d tasks, %+v: %d requests, %d of them Wait", len(w.Tasks), cfg, requests, waits)
		})
	}
}
