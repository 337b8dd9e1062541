package core

import (
	"fmt"
	"math"
	"math/rand"

	"gridsched/internal/workload"
)

// WorkerCentricConfig parameterizes the paper's basic algorithm (Fig. 2).
type WorkerCentricConfig struct {
	Metric Metric `json:"metric"`
	// ChooseN is the n of ChooseTask(n): the scheduler picks among the n
	// best-weighted tasks with probability proportional to weight. n = 1
	// is the deterministic variant; the paper evaluates n = 1 and n = 2.
	ChooseN int   `json:"chooseN"`
	Seed    int64 `json:"seed"`
}

// Validate checks the configuration.
func (c WorkerCentricConfig) Validate() error {
	switch c.Metric {
	case MetricOverlap, MetricRest, MetricCombined, MetricCombinedLiteral:
	default:
		return fmt.Errorf("core: unknown metric %v", c.Metric)
	}
	if c.ChooseN < 1 {
		return fmt.Errorf("core: ChooseN = %d, need >= 1", c.ChooseN)
	}
	return nil
}

// WorkerCentric is the paper's worker-centric scheduler: one global task
// queue; each request from an idle worker weighs every pending task against
// that worker's site storage and assigns one.
//
// Unlike the paper's formulation (and the naive reference implementation
// kept in golden_reference_test.go), NextFor does not rescan the pending
// queue: each site maintains incrementally-updated weight-class indexes
// (siteIndex) from which the top-weighted candidates are read directly, so
// a request costs O(classes · ChooseN · log pending) instead of
// O(pending). The decisions are identical to the naive scan — including
// the random ChooseTask(n) draws — which the golden-equivalence test
// asserts across all metrics, ChooseN values, and seeds.
type WorkerCentric struct {
	cfg WorkerCentricConfig
	w   *workload.Workload
	idx *fileIndex
	rng *rand.Rand
	src *countingSource // what rng draws from

	alive     []bool // pending membership by task id
	completed []bool
	remaining int
	pendingN  int     // number of pending tasks
	order     fenwick // order statistics over pending task ids

	// indexes holds every attached site; the value stays nil until the
	// site first matters (siteFor): a site no batch was committed at and no
	// worker asked from has no resident files, so the index built then,
	// from whatever is pending by then, is the one an eager build would
	// have maintained. A grid attaches every site to every job and a job
	// mostly runs at a few.
	indexes map[int]*siteIndex
	// indexList is the built indexes, for allocation-free iteration.
	// Iteration order does not matter: per-site index updates touch no
	// shared floating-point state (class counts and reference totals are
	// exact integers), so removals/insertions commute.
	indexList []*siteIndex

	// replaying is set between BeginReplay and EndReplay (replay.go), while
	// only alive, completed, the counts and each mirror's resident/refs are
	// kept; replayed counts the assignments folded so far.
	replaying bool
	replayed  uint64

	// scratch reused across requests
	cand     []candidate
	top      []candidate
	roots    []candidate
	frontier []int32
	picked   []workload.TaskID

	// scratch of siteIndex.noteBatch, shared by every site's index and
	// allocated by the first batch: one batch's net change per task, and
	// the distinct tasks it touches. All zero between batches.
	delta   []taskDelta
	touched []workload.TaskID
}

// taskDelta is one task's net change over the batch being applied.
type taskDelta struct {
	refSum  int64 // read under the combined metrics only
	overlap int32
	touched bool // the task is in WorkerCentric.touched
}

// deltaOf returns t's entry in the batch's scratch, listing t as touched
// the first time.
func (s *WorkerCentric) deltaOf(t workload.TaskID) *taskDelta {
	d := &s.delta[t]
	if !d.touched {
		d.touched = true
		s.touched = append(s.touched, t)
	}
	return d
}

type candidate struct {
	id     workload.TaskID
	weight float64
}

var _ Scheduler = (*WorkerCentric)(nil)

// NewWorkerCentric builds the scheduler over the workload's full task set.
func NewWorkerCentric(w *workload.Workload, cfg WorkerCentricConfig) (*WorkerCentric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := &countingSource{src: rand.NewSource(cfg.Seed)}
	s := &WorkerCentric{
		cfg:       cfg,
		w:         w,
		idx:       indexFor(w),
		rng:       rand.New(src),
		src:       src,
		alive:     make([]bool, len(w.Tasks)),
		completed: make([]bool, len(w.Tasks)),
		remaining: len(w.Tasks),
		pendingN:  len(w.Tasks),
		indexes:   make(map[int]*siteIndex),
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	s.order.init(s.alive)
	return s, nil
}

// Name implements Scheduler. It matches the paper's algorithm labels:
// "overlap", "rest", "combined", and with n >= 2 "rest.2" etc.
func (s *WorkerCentric) Name() string {
	if s.cfg.ChooseN == 1 {
		return s.cfg.Metric.String()
	}
	return fmt.Sprintf("%s.%d", s.cfg.Metric, s.cfg.ChooseN)
}

// AttachSite implements Scheduler. It only registers the site; siteFor
// builds its mirror and index when something first happens there.
func (s *WorkerCentric) AttachSite(site int) {
	if _, ok := s.indexes[site]; !ok {
		s.indexes[site] = nil
	}
}

// siteFor returns the attached site's index, building it on first use from
// an empty mirror and the current pending set. During a bulk replay the new
// index is left unfiled: EndReplay files every built index anyway.
func (s *WorkerCentric) siteFor(site int, op string) *siteIndex {
	x, ok := s.indexes[site]
	if !ok {
		panic(fmt.Sprintf("core: %s for unattached site %d", op, site))
	}
	if x == nil {
		x = newSiteIndex(s)
		if !s.replaying {
			x.rebuild()
		}
		s.indexes[site] = x
		s.indexList = append(s.indexList, x)
	}
	return x
}

// NoteBatch implements Scheduler.
func (s *WorkerCentric) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	x := s.siteFor(site, "NoteBatch")
	if s.replaying {
		x.m.noteResidency(batch, fetched, evicted)
		return
	}
	x.noteBatch(batch, fetched, evicted)
}

// Remaining implements Scheduler.
func (s *WorkerCentric) Remaining() int { return s.remaining }

// NextFor implements Scheduler: the per-site weight-class indexes yield the
// same task CalculateWeight + ChooseTask(n) would pick from a full scan.
func (s *WorkerCentric) NextFor(at WorkerRef) (workload.Task, Status) {
	if s.pendingN == 0 {
		// Worker-centric scheduling never replicates (§3.2), so a worker
		// with no pending tasks is finished for good.
		return workload.Task{}, Done
	}
	if s.replaying {
		panic("core: NextFor during a bulk replay")
	}
	id := s.chooseTask(s.siteFor(at.Site, "NextFor"))
	s.removePending(id)
	return s.w.Tasks[id], Assigned
}

// chooseTask picks one task for a request served by the site behind x.
//
// The candidate set handed to pickSorted is a weight-ordered *subset* of
// what the naive scan would build: the class-best ChooseN tasks (ties to
// the lower id) of every weight class that can still hold one of the
// globally best ChooseN — under overlap and rest the classes read in weight
// order until ChooseN are in hand, under the combined metrics the at most
// ChooseN classes with the best roots (gatherCombined has the argument).
// The subset necessarily includes the globally best ChooseN, so
// ChooseTask(n) selects — and randomly draws — exactly as the naive scan
// would.
func (s *WorkerCentric) chooseTask(x *siteIndex) workload.TaskID {
	n := s.cfg.ChooseN
	m := x.m
	s.cand = s.cand[:0]

	if s.cfg.Metric == MetricOverlap {
		// Classes are keyed by overlap; weight == class key. When the top
		// class is 0 every weight is zero — no information — and the naive
		// scan falls back to a uniform draw over all pending tasks, which
		// we reproduce with an order-statistics query instead of a scan.
		top := x.maxClass()
		if top == 0 {
			return s.order.kth(s.rng.Intn(s.pendingN))
		}
		// Descending classes: weights strictly decrease, so the first n
		// gathered are the global top n. Zero-weight tasks from class 0
		// pad the tail exactly like the naive scan's candidate list does:
		// they never win the proportional draw, but their presence keeps
		// len(top) — and therefore the number of RNG draws — identical.
		for c := top; c >= 0 && len(s.cand) < n; c = x.nextClassBelow(c) {
			s.picked = x.topK(c, n-len(s.cand), s.picked[:0])
			for _, id := range s.picked {
				s.cand = append(s.cand, candidate{id: id, weight: float64(c)})
			}
		}
		return s.pickSorted()
	}

	// Tasks that fully overlap the site's storage need zero transfers;
	// rest_t = 1/0 diverges there, which we resolve (the paper leaves the
	// case open) by always preferring full-overlap tasks, ranked by
	// overlap cardinality. They live in class 0 (missing == 0), ordered by
	// (|files| desc, id asc) — exactly the weight order of the naive
	// scan's full-overlap pass.
	if x.classLen(0) > 0 {
		s.picked = x.topK(0, n, s.picked[:0])
		for _, id := range s.picked {
			s.cand = append(s.cand, candidate{id: id, weight: float64(m.overlap[id])})
		}
		return s.pickSorted()
	}

	switch s.cfg.Metric {
	case MetricRest:
		// weight = 1/missing: ascending missing classes have strictly
		// decreasing weight, all positive, so the first n gathered win.
		for c := x.nextClassAbove(0); c > 0 && len(s.cand) < n; c = x.nextClassAbove(c) {
			s.picked = x.topK(c, n-len(s.cand), s.picked[:0])
			for _, id := range s.picked {
				s.cand = append(s.cand, candidate{id: id, weight: 1 / float64(c)})
			}
		}
	case MetricCombined, MetricCombinedLiteral:
		s.gatherCombined(x)
	}
	return s.pickSorted()
}

// gatherCombined fills s.cand for a request under the combined metrics,
// whose weight trades past references against missing files, so that no
// single class dominates. Totals are O(classes) from incrementally-
// maintained exact integer counts — see the canonical-totals note on
// siteIndex.
//
// Within a missing class the weight is monotone in refSum, so the class's
// members in (weight desc, id asc) order are its heap in (refSum desc, id
// asc) order: the best member is the root, the best n are topK(c, n), and
// the global top n is among the per-class top n. Gathering those from every
// non-empty class (gatherCombinedFull in the tests) is exact and, with ~90
// classes populated on a Coadd queue, most of a request's cost. Two passes
// gather the same top n from at most n classes:
//
//  1. Weigh each non-empty class's root and keep the n best roots under
//     (weight desc, id asc).
//  2. Expand only the classes those roots came from with topK(c, n).
//
// Why at most n classes suffice: take a class C that pass 1 dropped. n
// roots of other classes precede C's root in the order, and C's root
// precedes every other member of C, so every member of C has n candidates
// ahead of it and cannot be in the top n. The kept classes contribute their
// full per-class top n, exactly as in the full gather. Hence the top-n array
// pickSorted builds is the same, element for element. Its length is the
// same too — with fewer than n non-empty classes none is dropped, and with
// n or more both gathers hold at least n candidates — and the length and
// the weights are all that decide how many random numbers pickSorted draws,
// so the random stream advances identically.
func (s *WorkerCentric) gatherCombined(x *siteIndex) {
	n := s.cfg.ChooseN
	totalRef, totalRest := x.combinedTotals()
	roots := s.roots[:0]
	for c := x.nextClassAbove(0); c > 0; c = x.nextClassAbove(c) {
		root := x.heaps[c][0]
		roots = insertTop(roots, candidate{id: root, weight: s.combinedWeight(x, root, totalRef, totalRest)}, n)
	}
	for _, root := range roots {
		s.picked = x.topK(x.classKey(root.id), n, s.picked[:0])
		for _, id := range s.picked {
			s.cand = append(s.cand, candidate{id: id, weight: s.combinedWeight(x, id, totalRef, totalRest)})
		}
	}
	s.roots = roots[:0]
}

// combinedTotals returns the two normalizers of the combined metrics over
// the pending set (the canonical forms described on siteIndex).
func (x *siteIndex) combinedTotals() (totalRef, totalRest float64) {
	for c := 1; c < len(x.heaps); c++ {
		// Under the combined metrics every class is a heap keyed by
		// missing, so the class population is the missing-class count.
		if cnt := len(x.heaps[c]); cnt > 0 {
			totalRest += float64(cnt) / float64(c)
		}
	}
	return float64(x.totalRef), totalRest
}

// combinedWeight weighs pending task id, which misses at least one file at
// the site behind x, under MetricCombined or MetricCombinedLiteral.
func (s *WorkerCentric) combinedWeight(x *siteIndex, id workload.TaskID, totalRef, totalRest float64) float64 {
	ov := float64(x.m.overlap[id])
	missing := float64(s.idx.filesLen[id]) - ov
	rest := 1 / missing
	if s.cfg.Metric == MetricCombined {
		return norm(float64(x.m.refSum[id]), totalRef) + norm(rest, totalRest)
	}
	// As typeset: ref_t/totalRef + totalRest/rest_t. Larger rest_t (fewer
	// transfers) lowers the second term; kept verbatim for the ablation.
	return norm(float64(x.m.refSum[id]), totalRef) + totalRest/rest
}

// better is the (weight desc, id asc) total order ChooseTask(n) selects
// under.
func better(a, b candidate) bool {
	if a.weight != b.weight {
		return a.weight > b.weight
	}
	return a.id < b.id
}

// insertTop inserts c into top, the at most n best candidates seen so far
// in descending order, dropping the worst when there are more than n.
func insertTop(top []candidate, c candidate, n int) []candidate {
	if len(top) < n {
		top = append(top, c)
	} else if better(c, top[n-1]) {
		top[n-1] = c
	} else {
		return top
	}
	for i := len(top) - 1; i > 0 && better(top[i], top[i-1]); i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	return top
}

// topN returns the ChooseN best of the gathered candidates, best first, in
// scratch the next request reuses.
func (s *WorkerCentric) topN() []candidate {
	top := s.top[:0]
	for _, c := range s.cand {
		top = insertTop(top, c, s.cfg.ChooseN)
	}
	s.top = top[:0]
	return top
}

// pickSorted runs ChooseTask(n) over the gathered candidates with an
// explicit (weight desc, id asc) total order. The naive scan achieves the
// same order implicitly — it visits candidates in ascending id and only
// replaces on strictly greater weight — so selecting under the explicit
// comparator is order-insensitive and the gathered candidates need no
// re-sorting. The proportional draw then walks the identical top array the
// naive pickTopN would build. Candidate weights are all >= 0 and at least
// one is positive on every path that reaches here (the zero-information
// Overlap case is served from the order-statistics tree instead), matching
// the naive scan's "informative" branch.
func (s *WorkerCentric) pickSorted() workload.TaskID {
	top := s.topN()
	if len(top) == 1 {
		return top[0].id
	}
	var sum float64
	for _, c := range top {
		if math.IsInf(c.weight, 1) {
			return c.id
		}
		sum += c.weight
	}
	if sum <= 0 {
		return top[s.rng.Intn(len(top))].id
	}
	r := s.rng.Float64() * sum
	for _, c := range top {
		r -= c.weight
		if r < 0 {
			return c.id
		}
	}
	return top[len(top)-1].id
}

// norm returns v/total, or 0 when the total is degenerate.
func norm(v, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return v / total
}

// removePending drops id from the pending set: O(log tasks) for the
// order-statistics tree plus one heap removal per built site.
func (s *WorkerCentric) removePending(id workload.TaskID) {
	if !s.alive[id] {
		panic(fmt.Sprintf("core: task %d assigned twice", id))
	}
	s.alive[id] = false
	s.pendingN--
	s.order.add(int(id), -1)
	for _, x := range s.indexList {
		x.remove(id)
	}
}

// OnTaskComplete implements Scheduler. Worker-centric scheduling has no
// replicas to cancel.
func (s *WorkerCentric) OnTaskComplete(id workload.TaskID, at WorkerRef) []WorkerRef {
	if !s.completed[id] {
		s.completed[id] = true
		s.remaining--
	}
	return nil
}

// OnExecutionFailed implements Scheduler: the task goes back into the
// pending queue to be weighed again by future requests.
func (s *WorkerCentric) OnExecutionFailed(id workload.TaskID, at WorkerRef) {
	if s.completed[id] || s.alive[id] {
		return
	}
	s.alive[id] = true
	s.pendingN++
	if s.replaying {
		return // EndReplay files it
	}
	s.order.add(int(id), 1)
	for _, x := range s.indexList {
		x.add(id)
	}
}

// siteIndex is one site's incrementally-maintained dispatch index over the
// pending set. It is what makes NextFor sublinear.
//
// Pending tasks are partitioned into weight classes:
//
//   - MetricOverlap: class key = overlap[t]. All tasks in a class weigh
//     the same (the overlap), so classes are totally weight-ordered and
//     within a class ties break to the lower id.
//   - Other metrics: class key = missing(t) = |files(t)| - overlap[t].
//     Class 0 is the full-overlap class (weight = |files(t)|, the
//     always-preferred zero-transfer tasks); classes >= 1 hold the tasks
//     the rest/combined formulas weigh.
//
// Each class keeps its members in the within-class weight order of the
// naive scan:
//
//	class 0 (non-overlap metrics): (|files| desc, id asc) — a binary heap
//	combined metrics, class >= 1:  (refSum desc, id asc)  — a binary heap
//	otherwise:                     (id asc)               — a task-id bitset
//
// The id-ordered classes are the embedded classSets — bitsets, because
// their order never changes: membership moves are O(1) bit flips and the k
// lowest ids read straight off the words, where a heap would pay O(log)
// sifts on every noteBatch move. They range over the pending tasks, as the
// heaps do; StorageAffinity keeps the same structure over the tasks its own
// queries range over. Within a missing class the combined weight is strictly monotone
// in refSum (the rest term is constant and distinct integer refSums map
// to distinct normalized floats at these magnitudes), so (refSum desc, id
// asc) is exactly the (weight desc, id asc) order.
//
// Invariants, restored after every mutation:
//
//  1. A task is in exactly one class structure iff it is pending: heap
//     classes track the slot in pos[t] (-1 otherwise), bitset classes the
//     task's bit and counts[c].
//  2. nonEmpty has bit c set iff class c is non-empty, heap or bitset.
//  3. totalRef sums refSum over all pending tasks (combined metrics
//     only) — an exact integer, so the request-time totals are
//     reproducible regardless of update order; the per-class counts the
//     totals also need are just the class populations.
//
// Canonical totals: the naive scan accumulated totalRest = Σ 1/missing_t
// in ascending task-id order; the index knows only per-class counts, so
// the canonical definition is the class-order sum Σ_m count(m)/m
// (ascending m). The two differ by floating-point rounding only; the
// test-only reference implementation uses the canonical form so that
// equivalence is exact, not probabilistic. totalRef needs no such care:
// it is an integer sum far below 2^53, exact under any order.
//
// What a batch costs is noteBatch's subject; its one shortcut, the
// neighbour walk, needs a table that exists only for a workload whose
// index is shared (ShareIndex), and is taken by what the batch and the
// index are, never by a setting.
type siteIndex struct {
	s *WorkerCentric
	m *siteMirror

	heaps     [][]workload.TaskID // per weight-ordered class key (usesHeap)
	classSets                     // the id-ordered classes, and which classes of either kind are non-empty
	pos       []int32             // per task: index in its class heap, -1 if none

	keyIsOverlap bool // MetricOverlap: class key is overlap, not missing
	rankByRef    bool // combined metrics: classes >= 1 ordered by refSum

	// Combined-metric totals over the pending set (invariant 3).
	needTotals bool
	totalRef   int64
}

// newSiteIndex returns an index over a fresh mirror with nothing filed yet;
// rebuild files the pending set.
func newSiteIndex(s *WorkerCentric) *siteIndex {
	classes := s.idx.maxFiles + 1
	// refs and refSum are read by the combined metrics only.
	rankByRef := s.cfg.Metric == MetricCombined || s.cfg.Metric == MetricCombinedLiteral
	x := &siteIndex{
		s:            s,
		m:            newSiteMirror(s.idx, len(s.w.Tasks), rankByRef),
		heaps:        make([][]workload.TaskID, classes),
		classSets:    newClassSets(classes, len(s.w.Tasks)),
		pos:          make([]int32, len(s.w.Tasks)),
		keyIsOverlap: s.cfg.Metric == MetricOverlap,
		rankByRef:    rankByRef,
		needTotals:   rankByRef,
	}
	return x
}

// rebuild files the pending set into the classes from scratch, by what the
// mirror's arrays say now (invariants 1-3): every class emptied, every
// pending task appended to its class in ascending id, every heap class
// heapified once. Over a fresh mirror the append order is already a heap
// under every comparator (overlaps and refSums are all zero), so a site's
// first build pays no sift.
func (x *siteIndex) rebuild() {
	for c := range x.heaps {
		x.heaps[c] = x.heaps[c][:0]
	}
	x.classSets.reset()
	x.totalRef = 0
	for t, pending := range x.s.alive {
		x.pos[t] = -1
		if !pending {
			continue
		}
		t := workload.TaskID(t)
		c := x.classKey(t)
		if x.usesHeap(c) {
			x.pos[t] = int32(len(x.heaps[c]))
			x.heaps[c] = append(x.heaps[c], t)
			x.classSets.markHeapClass(c, true)
		} else {
			x.classSets.add(c, t)
		}
		if x.needTotals {
			x.totalRef += x.m.refSum[t]
		}
	}
	for c, h := range x.heaps {
		for i := len(h)/2 - 1; i >= 0; i-- {
			x.siftDown(c, i)
		}
	}
}

// classKey returns the class of task t under the configured metric.
func (x *siteIndex) classKey(t workload.TaskID) int {
	if x.keyIsOverlap {
		return int(x.m.overlap[t])
	}
	return int(x.s.idx.filesLen[t] - x.m.overlap[t])
}

// usesHeap reports whether class c needs a weight-ordered heap. Classes
// whose within-class order is plain ascending id (every class under the
// overlap metric, the missing >= 1 classes under rest) are bitsets
// instead: O(1) membership moves where a heap pays O(log) sifts, and
// noteBatch moves tasks between classes constantly.
func (x *siteIndex) usesHeap(c int) bool {
	return x.rankByRef || (!x.keyIsOverlap && c == 0)
}

// less is the within-class weight order (see the type comment).
func (x *siteIndex) less(class int, a, b workload.TaskID) bool {
	if !x.keyIsOverlap && class == 0 {
		la, lb := x.s.idx.filesLen[a], x.s.idx.filesLen[b]
		if la != lb {
			return la > lb
		}
		return a < b
	}
	if x.rankByRef && class != 0 {
		ra, rb := x.m.refSum[a], x.m.refSum[b]
		if ra != rb {
			return ra > rb
		}
	}
	return a < b
}

// classLen returns the number of pending tasks in class c.
func (x *siteIndex) classLen(c int) int {
	if x.usesHeap(c) {
		return len(x.heaps[c])
	}
	return int(x.classSets.counts[c])
}

// add inserts pending task t into its class structure (invariants 1-3).
func (x *siteIndex) add(t workload.TaskID) {
	c := x.classKey(t)
	if x.usesHeap(c) {
		h := x.heaps[c]
		x.pos[t] = int32(len(h))
		x.heaps[c] = append(h, t)
		x.siftUp(c, len(h))
		if len(h) == 0 {
			x.classSets.markHeapClass(c, true)
		}
	} else {
		x.classSets.add(c, t)
	}
	if x.needTotals {
		x.totalRef += x.m.refSum[t]
	}
}

// remove deletes pending task t from its class structure (invariants 1-3).
func (x *siteIndex) remove(t workload.TaskID) {
	c := x.classKey(t)
	if x.usesHeap(c) {
		h := x.heaps[c]
		i := int(x.pos[t])
		last := len(h) - 1
		if i != last {
			moved := h[last]
			h[i] = moved
			x.pos[moved] = int32(i)
			x.heaps[c] = h[:last]
			if !x.siftUp(c, i) {
				x.siftDown(c, i)
			}
		} else {
			x.heaps[c] = h[:last]
		}
		x.pos[t] = -1
		if last == 0 {
			x.classSets.markHeapClass(c, false)
		}
	} else {
		x.classSets.remove(c, t)
	}
	if x.needTotals {
		x.totalRef -= x.m.refSum[t]
	}
}

// noteBatch is siteMirror.noteBatch for a mirror that backs this index:
// the same storage events, with the index's class structures kept in step
// with overlap/refSum. Outside the combined metrics it maintains overlap
// alone: the mirror has no refs and no refSum then.
//
// A batch file fans out to every task that reads it, and one dispatched
// task's files share most of their readers, so the same task is reached
// many times per batch. The fan-out therefore only accumulates each task's
// net (overlap, refSum) change in the scheduler's dense scratch; afterwards
// every distinct touched task is fixed once — re-filed when its class
// changed, sifted once when only its refSum did. Until a task's fix the
// mirror arrays hold its old values, so every heap stays ordered by what
// the arrays say throughout. Where a task ends up inside a heap depends on
// the order of fixes; nothing observable does: topK reads heaps in the
// exact (weight desc, id asc) order and totalRef is an exact integer.
//
// The reference half of the fan-out — each resident batch file adds one to
// the refSum of each of its readers — has a shortcut. When the batch is the
// file list of a task T and all of it is resident once the fetched files
// are in, reader t gains one per file it shares with T, |files(T) ∩
// files(t)| in all, which does not depend on this site or this moment: it
// is T's row of the workload's neighbour table (fileIndex.neighbours), a
// few dozen entries where the per-file walk makes several hundred visits.
// The whole batch has to be resident because a non-resident file's readers
// gain nothing from it, and the table cannot say which of a neighbour's
// shared files that was. Any other batch — one that is no task's file list
// (a replication push), one with a member still absent (the caller's
// fetched list left it out), or any batch over a workload nobody built the
// table for — takes the per-file walk, which is the definition.
func (x *siteIndex) noteBatch(batch, fetched, evicted []workload.FileID) {
	s, m := x.s, x.m
	if s.delta == nil {
		s.delta = make([]taskDelta, len(s.alive))
	}
	for _, f := range evicted {
		if !m.resident[f] {
			continue
		}
		m.resident[f] = false
		var r int64
		if x.rankByRef {
			r = int64(m.refs[f])
		}
		for _, t := range m.idx.byFile[f] {
			d := s.deltaOf(t)
			d.overlap--
			d.refSum -= r
		}
	}
	for _, f := range fetched {
		if m.resident[f] {
			continue
		}
		m.resident[f] = true
		var r int64
		if x.rankByRef {
			r = int64(m.refs[f])
		}
		for _, t := range m.idx.byFile[f] {
			d := s.deltaOf(t)
			d.overlap++
			d.refSum += r
		}
	}
	if x.rankByRef {
		x.noteReferences(batch)
	}

	for _, t := range s.touched {
		dOv, dRef := s.delta[t].overlap, s.delta[t].refSum
		s.delta[t] = taskDelta{}
		switch {
		case !s.alive[t]:
			m.overlap[t] += dOv
			if x.rankByRef {
				m.refSum[t] += dRef
			}
		case dOv != 0:
			// The class key moves with overlap: re-file.
			x.remove(t)
			m.overlap[t] += dOv
			if x.rankByRef {
				m.refSum[t] += dRef
			}
			x.add(t)
		case dRef != 0:
			// Same class, new rank: a gained file and a lost one cancel in
			// overlap but rarely in refSum, so it can sink as well as rise.
			// (dRef is zero outside the combined metrics.)
			m.refSum[t] += dRef
			x.totalRef += dRef
			if c := x.classKey(t); c != 0 {
				if i := int(x.pos[t]); dRef > 0 {
					x.siftUp(c, i)
				} else {
					x.siftDown(c, i)
				}
			}
		}
	}
	s.touched = s.touched[:0]
}

// noteReferences counts one reference to every batch file and accumulates
// what that adds to each reader's refSum: by the neighbour walk when the
// batch allows it, else file by file (see noteBatch).
func (x *siteIndex) noteReferences(batch []workload.FileID) {
	s, m := x.s, x.m
	allResident := true
	for _, f := range batch {
		m.refs[f]++
		allResident = allResident && m.resident[f]
	}
	if allResident {
		if row := s.idx.neighboursOf(s.w, batch); row != nil {
			for _, n := range row {
				s.deltaOf(n.task).refSum += int64(n.shared)
			}
			return
		}
	}
	for _, f := range batch {
		if !m.resident[f] {
			continue
		}
		for _, t := range m.idx.byFile[f] {
			s.deltaOf(t).refSum++
		}
	}
}

// siftUp restores the heap property upward from slot i of class c,
// reporting whether anything moved.
func (x *siteIndex) siftUp(c, i int) bool {
	h := x.heaps[c]
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(c, h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		x.pos[h[i]] = int32(i)
		x.pos[h[parent]] = int32(parent)
		i = parent
		moved = true
	}
	return moved
}

// siftDown restores the heap property downward from slot i of class c.
func (x *siteIndex) siftDown(c, i int) {
	h := x.heaps[c]
	for {
		best := i
		if l := 2*i + 1; l < len(h) && x.less(c, h[l], h[best]) {
			best = l
		}
		if r := 2*i + 2; r < len(h) && x.less(c, h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		x.pos[h[i]] = int32(i)
		x.pos[h[best]] = int32(best)
		i = best
	}
}

// topK appends the k best tasks of class c (in the class's weight order)
// to out. For an id-ordered bitset class that is the k lowest set bits;
// for a heap class, a bounded frontier walk that never mutates the heap:
// the next best element is always among the children of those already
// taken.
func (x *siteIndex) topK(c, k int, out []workload.TaskID) []workload.TaskID {
	if !x.usesHeap(c) {
		return x.classSets.lowest(c, k, out)
	}
	h := x.heaps[c]
	if len(h) == 0 || k <= 0 {
		return out
	}
	fr := x.s.frontier[:0]
	fr = append(fr, 0)
	for len(fr) > 0 && k > 0 {
		bi := 0
		for i := 1; i < len(fr); i++ {
			if x.less(c, h[fr[i]], h[fr[bi]]) {
				bi = i
			}
		}
		p := int(fr[bi])
		fr[bi] = fr[len(fr)-1]
		fr = fr[:len(fr)-1]
		out = append(out, h[p])
		k--
		if l := 2*p + 1; l < len(h) {
			fr = append(fr, int32(l))
		}
		if r := 2*p + 2; r < len(h) {
			fr = append(fr, int32(r))
		}
	}
	x.s.frontier = fr[:0]
	return out
}

// fenwick is a binary indexed tree over task ids holding 0/1 pending
// flags; it answers "k-th smallest pending id" in O(log n), which is how
// the zero-information uniform draw avoids materializing the pending list.
type fenwick struct {
	tree []int32 // 1-based
	mask int     // highest power of two <= len(tree)-1
}

// init sets the flags to present, in O(n).
func (f *fenwick) init(present []bool) {
	n := len(present)
	if len(f.tree) == n+1 {
		clear(f.tree)
	} else {
		f.tree = make([]int32, n+1)
	}
	for i := 1; i <= n; i++ {
		if present[i-1] {
			f.tree[i]++
		}
		if j := i + (i & -i); j <= n {
			f.tree[j] += f.tree[i]
		}
	}
	f.mask = 1
	for f.mask*2 <= n {
		f.mask *= 2
	}
}

// add adjusts the count at 0-based index i by d.
func (f *fenwick) add(i int, d int32) {
	for j := i + 1; j < len(f.tree); j += j & -j {
		f.tree[j] += d
	}
}

// kth returns the 0-based index of the (k+1)-th smallest present id.
func (f *fenwick) kth(k int) workload.TaskID {
	rem := int32(k) + 1
	pos := 0
	for b := f.mask; b > 0; b >>= 1 {
		if next := pos + b; next < len(f.tree) && f.tree[next] < rem {
			pos = next
			rem -= f.tree[next]
		}
	}
	return workload.TaskID(pos) // 0-based: internal pos+1 - 1
}
