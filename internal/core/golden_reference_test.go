package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// This file keeps the pre-index WorkerCentric implementation — a full
// CalculateWeight scan over a sorted pending list on every request — as a
// test-only golden reference, and asserts the optimized scheduler makes
// *identical* decisions: same assignment sequence, same statuses, same
// random draws, same derived makespan, across every metric, ChooseN ∈
// {1, 2}, and several seeds, under storage churn, failures and requeues.
//
// The single deliberate deviation from the seed code is the combined
// metrics' totalRest accumulation, which both implementations compute in
// the canonical class-order form (see the siteIndex doc comment); all
// other arithmetic is carried over verbatim, so weight floats are
// bit-identical and the equivalence check is exact rather than
// probabilistic.

// naiveWorkerCentric is the reference implementation.
type naiveWorkerCentric struct {
	cfg WorkerCentricConfig
	w   *workload.Workload
	idx *fileIndex
	rng *rand.Rand

	pending   []workload.TaskID // ascending task id
	alive     []bool
	completed []bool
	remaining int
	mirrors   map[int]*siteMirror

	cand []candidate
	cnt  []int32 // per-request missing-class counts (canonical totals)
}

func newNaiveWorkerCentric(w *workload.Workload, cfg WorkerCentricConfig) (*naiveWorkerCentric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shareIfAsked(w)
	s := &naiveWorkerCentric{
		cfg:       cfg,
		w:         w,
		idx:       newFileIndex(w),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		pending:   make([]workload.TaskID, len(w.Tasks)),
		alive:     make([]bool, len(w.Tasks)),
		completed: make([]bool, len(w.Tasks)),
		remaining: len(w.Tasks),
		mirrors:   make(map[int]*siteMirror),
	}
	s.cnt = make([]int32, s.idx.maxFiles+1)
	for i := range w.Tasks {
		s.pending[i] = workload.TaskID(i)
		s.alive[i] = true
	}
	return s, nil
}

func (s *naiveWorkerCentric) Name() string { return "naive-" + s.cfg.Metric.String() }

func (s *naiveWorkerCentric) AttachSite(site int) {
	if _, ok := s.mirrors[site]; !ok {
		s.mirrors[site] = newSiteMirror(s.idx, len(s.w.Tasks), true)
	}
}

func (s *naiveWorkerCentric) NoteBatch(site int, batch, fetched, evicted []workload.FileID) {
	s.mirrors[site].noteBatch(batch, fetched, evicted)
}

func (s *naiveWorkerCentric) Remaining() int { return s.remaining }

func (s *naiveWorkerCentric) NextFor(at WorkerRef) (workload.Task, Status) {
	if len(s.pending) == 0 {
		return workload.Task{}, Done
	}
	m, ok := s.mirrors[at.Site]
	if !ok {
		panic(fmt.Sprintf("core: NextFor for unattached site %d", at.Site))
	}
	id := s.chooseTask(m)
	s.removePending(id)
	return s.w.Tasks[id], Assigned
}

// chooseTask is the seed's scan: full-overlap pass, totals pass, candidate
// pass, then ChooseTask(n).
func (s *naiveWorkerCentric) chooseTask(m *siteMirror) workload.TaskID {
	if s.cfg.Metric != MetricOverlap {
		s.cand = s.cand[:0]
		for _, id := range s.pending {
			if m.overlap[id] == int32(len(s.w.Tasks[id].Files)) {
				s.cand = append(s.cand, candidate{id: id, weight: float64(m.overlap[id])})
			}
		}
		if len(s.cand) > 0 {
			return s.pickTopN(s.cand)
		}
	}

	// Pre-compute totals for the combined metrics (canonical class-order
	// totalRest; totalRef is an exact integer sum under any order).
	var totalRef, totalRest float64
	if s.cfg.Metric == MetricCombined || s.cfg.Metric == MetricCombinedLiteral {
		for i := range s.cnt {
			s.cnt[i] = 0
		}
		for _, id := range s.pending {
			totalRef += float64(m.refSum[id])
			s.cnt[len(s.w.Tasks[id].Files)-int(m.overlap[id])]++ // missing >= 1 here
		}
		for c := 1; c < len(s.cnt); c++ {
			if cnt := s.cnt[c]; cnt > 0 {
				totalRest += float64(cnt) / float64(c)
			}
		}
	}

	s.cand = s.cand[:0]
	for _, id := range s.pending {
		ov := float64(m.overlap[id])
		missing := float64(len(s.w.Tasks[id].Files)) - ov
		var weight float64
		switch s.cfg.Metric {
		case MetricOverlap:
			weight = ov
		case MetricRest:
			weight = 1 / missing
		case MetricCombined:
			rest := 1 / missing
			weight = norm(float64(m.refSum[id]), totalRef) + norm(rest, totalRest)
		case MetricCombinedLiteral:
			rest := 1 / missing
			weight = norm(float64(m.refSum[id]), totalRef) + totalRest/rest
		}
		s.cand = append(s.cand, candidate{id: id, weight: weight})
	}
	return s.pickTopN(s.cand)
}

// pickTopN is the seed's ChooseTask(n), verbatim.
func (s *naiveWorkerCentric) pickTopN(cand []candidate) workload.TaskID {
	informative := false
	for _, c := range cand {
		if c.weight > 0 {
			informative = true
			break
		}
	}
	if !informative {
		return cand[s.rng.Intn(len(cand))].id
	}
	n := s.cfg.ChooseN
	if n > len(cand) {
		n = len(cand)
	}
	top := make([]candidate, 0, n)
	for _, c := range cand {
		if len(top) < n {
			top = append(top, c)
			for i := len(top) - 1; i > 0 && top[i].weight > top[i-1].weight; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
			continue
		}
		if c.weight > top[n-1].weight {
			top[n-1] = c
			for i := n - 1; i > 0 && top[i].weight > top[i-1].weight; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
		}
	}
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

func (s *naiveWorkerCentric) removePending(id workload.TaskID) {
	if !s.alive[id] {
		panic(fmt.Sprintf("core: task %d assigned twice", id))
	}
	s.alive[id] = false
	lo, hi := 0, len(s.pending)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.pending[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.pending = append(s.pending[:lo], s.pending[lo+1:]...)
}

func (s *naiveWorkerCentric) OnTaskComplete(id workload.TaskID, at WorkerRef) []WorkerRef {
	if !s.completed[id] {
		s.completed[id] = true
		s.remaining--
	}
	return nil
}

func (s *naiveWorkerCentric) OnExecutionFailed(id workload.TaskID, at WorkerRef) {
	if s.completed[id] || s.alive[id] {
		return
	}
	s.alive[id] = true
	lo, hi := 0, len(s.pending)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.pending[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.pending = append(s.pending, 0)
	copy(s.pending[lo+1:], s.pending[lo:])
	s.pending[lo] = id
}

// goldenDriver runs both schedulers in lockstep against shared LRU stores
// under a deterministic request/failure/completion pattern and returns each
// scheduler's independently derived assignment sequence and makespan.
func goldenDriver(t *testing.T, w *workload.Workload, cfg WorkerCentricConfig, sites int) (seq []workload.TaskID, makespan float64) {
	t.Helper()
	opt, err := NewWorkerCentric(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newNaiveWorkerCentric(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	maxFiles := 0
	for _, task := range w.Tasks {
		if len(task.Files) > maxFiles {
			maxFiles = len(task.Files)
		}
	}
	// One site more than asked for: the last one gets no request until half
	// the tasks have been assigned, so its index is built late, from a
	// pending set that has already shrunk and been requeued into.
	late := sites
	stores := make([]*storage.Store, sites+1)
	optClock := make([]float64, len(stores)) // per-site virtual time, optimized view
	refClock := make([]float64, len(stores)) // same rule applied to the reference's tasks
	for i := range stores {
		st, err := storage.New(maxFiles*2, storage.LRU) // tight: heavy eviction churn
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		opt.AttachSite(i)
		ref.AttachSite(i)
	}
	// And sites nothing ever happens at, as a grid attaches all of its sites
	// to a job that runs at a few: they must cost the decisions nothing.
	for i := len(stores); i < len(stores)+3; i++ {
		opt.AttachSite(i)
		ref.AttachSite(i)
	}

	type exec struct {
		id   workload.TaskID
		site int
	}
	var inflight []exec
	drv := rand.New(rand.NewSource(cfg.Seed*7919 + 17))
	optMakespan, refMakespan := 0.0, 0.0
	var refSeq []workload.TaskID

	finishOne := func() {
		k := drv.Intn(len(inflight))
		e := inflight[k]
		inflight = append(inflight[:k], inflight[k+1:]...)
		if drv.Intn(4) == 0 {
			// Lost execution: the task must be requeued and rescheduled
			// with whatever the site storage looks like by then.
			opt.OnExecutionFailed(e.id, WorkerRef{Site: e.site})
			ref.OnExecutionFailed(e.id, WorkerRef{Site: e.site})
			return
		}
		opt.OnTaskComplete(e.id, WorkerRef{Site: e.site})
		ref.OnTaskComplete(e.id, WorkerRef{Site: e.site})
	}

	for opt.Remaining() > 0 || ref.Remaining() > 0 {
		site := drv.Intn(sites)
		if len(seq) >= len(w.Tasks)/2 && drv.Intn(3) == 0 {
			site = late
		}
		at := WorkerRef{Site: site, Worker: 0}
		to, so := opt.NextFor(at)
		tr, sr := ref.NextFor(at)
		if so != sr {
			t.Fatalf("status diverged at site %d: optimized %v, reference %v", site, so, sr)
		}
		if so == Assigned {
			if to.ID != tr.ID {
				t.Fatalf("assignment diverged: optimized task %d, reference task %d (after %d assignments)",
					to.ID, tr.ID, len(seq))
			}
			seq = append(seq, to.ID)
			refSeq = append(refSeq, tr.ID)
			// Each scheduler's makespan derives from its own returned
			// task — staging cost + compute cost on the site's clock —
			// so equal makespans are a consequence, not an assumption.
			optMissing := stores[site].AppendMissing(nil, to.Files)
			refMissing := stores[site].AppendMissing(nil, tr.Files)
			fetched, evicted, err := stores[site].CommitBatchInto(to.Files, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt.NoteBatch(site, to.Files, fetched, evicted)
			ref.NoteBatch(site, tr.Files, fetched, evicted)
			checkIndexInvariants(t, opt)
			optClock[site] += float64(len(optMissing)) + float64(len(to.Files))*0.25
			refClock[site] += float64(len(refMissing)) + float64(len(tr.Files))*0.25
			optMakespan = math.Max(optMakespan, optClock[site])
			refMakespan = math.Max(refMakespan, refClock[site])
			inflight = append(inflight, exec{id: to.ID, site: site})
		}
		// Drain some in-flight executions; always drain when nothing is
		// dispatchable so failures can requeue the stragglers.
		for len(inflight) > 0 && (so != Assigned || drv.Intn(3) == 0) {
			finishOne()
			if so == Assigned {
				break
			}
		}
	}
	for i, id := range refSeq {
		if seq[i] != id {
			t.Fatalf("sequence diverged at %d: %d vs %d", i, seq[i], id)
		}
	}
	if optMakespan != refMakespan {
		t.Fatalf("makespans diverged: %v vs %v", optMakespan, refMakespan)
	}
	if opt.pendingN != 0 || len(ref.pending) != 0 {
		t.Fatalf("pending left over: optimized %d, reference %d", opt.pendingN, len(ref.pending))
	}
	if built := len(opt.indexList); built != len(stores) {
		t.Fatalf("%d site indexes built, %d sites were used", built, len(stores))
	}
	return seq, optMakespan
}

// TestGoldenEquivalenceWithNaiveScan is the equivalence matrix: all four
// metrics, ChooseN 1 and 2, three seeds.
func TestGoldenEquivalenceWithNaiveScan(t *testing.T) {
	metrics := []Metric{MetricOverlap, MetricRest, MetricCombined, MetricCombinedLiteral}
	for _, metric := range metrics {
		for _, chooseN := range []int{1, 2} {
			for _, seed := range []int64{1, 2, 3} {
				name := fmt.Sprintf("%s.n%d.seed%d", metric, chooseN, seed)
				t.Run(name, func(t *testing.T) {
					gen := workload.CoaddSmallConfig(seed)
					gen.Tasks = 150
					w, err := workload.GenerateCoadd(gen)
					if err != nil {
						t.Fatal(err)
					}
					cfg := WorkerCentricConfig{Metric: metric, ChooseN: chooseN, Seed: seed}
					seq, makespan := goldenDriver(t, w, cfg, 3)
					if len(seq) < len(w.Tasks) {
						t.Fatalf("only %d assignments for %d tasks", len(seq), len(w.Tasks))
					}
					if makespan <= 0 {
						t.Fatalf("degenerate makespan %v", makespan)
					}
				})
			}
		}
	}
}

// TestFenwickOrderStatistics pins the order-statistics tree the uniform
// zero-information draw depends on.
func TestFenwickOrderStatistics(t *testing.T) {
	var f fenwick
	f.init([]bool{true, true, true, true, true, true, true, true, true, true})
	for k := 0; k < 10; k++ {
		if got := f.kth(k); got != workload.TaskID(k) {
			t.Fatalf("kth(%d) = %d, want %d", k, got, k)
		}
	}
	f.add(3, -1)
	f.add(0, -1)
	f.add(9, -1)
	want := []workload.TaskID{1, 2, 4, 5, 6, 7, 8}
	for k, id := range want {
		if got := f.kth(k); got != id {
			t.Fatalf("after removals: kth(%d) = %d, want %d", k, got, id)
		}
	}
	f.add(0, 1)
	if got := f.kth(0); got != 0 {
		t.Fatalf("after re-add: kth(0) = %d, want 0", got)
	}
}

// noteBatch applies one committed batch to a mirror that tracks references:
// evictions leave, fetched files arrive, and every batch file gains one
// reference. This is the definition the schedulers' own batch updates are
// checked against — the naive references read the arrays it leaves
// directly.
//
// Redundant events — a fetch of an already-resident file, an eviction of an
// absent one — are ignored, which keeps the invariant 0 <= overlap[t] <=
// |files(t)| even for callers that do not track residency themselves. (The
// engines never send them: fetched/evicted come from storage.Store, which
// reports only actual insertions and evictions.)
func (m *siteMirror) noteBatch(batch, fetched, evicted []workload.FileID) {
	for _, f := range evicted {
		if !m.resident[f] {
			continue
		}
		m.resident[f] = false
		r := int64(m.refs[f])
		for _, t := range m.idx.byFile[f] {
			m.overlap[t]--
			m.refSum[t] -= r
		}
	}
	for _, f := range fetched {
		if m.resident[f] {
			continue
		}
		m.resident[f] = true
		r := int64(m.refs[f])
		for _, t := range m.idx.byFile[f] {
			m.overlap[t]++
			m.refSum[t] += r
		}
	}
	for _, f := range batch {
		m.refs[f]++
		if !m.resident[f] {
			continue
		}
		for _, t := range m.idx.byFile[f] {
			m.refSum[t]++
		}
	}
}
