package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// historyEvent is one call a recorded run made on its scheduler, with what
// a journal keeps of it: the assignment and the batch its staging committed,
// or the report that ended an execution.
type historyEvent struct {
	op                      int // 0 assign + batch, 1 complete, 2 fail
	task                    workload.TaskID
	at                      WorkerRef
	batch, fetched, evicted []workload.FileID
}

// recordHistory runs a fresh scheduler through a service-like loop — asks
// from several sites (one of them only late in the run), LRU stores tight
// enough to evict, executions that complete, fail or expire back into the
// queue — until about two thirds of the tasks are done, and returns the
// calls it made. The scheduler it ran is returned too: the uninterrupted
// one a replayed copy has to equal.
func recordHistory(t *testing.T, w *workload.Workload, cfg WorkerCentricConfig, sites int) (*WorkerCentric, []historyEvent) {
	t.Helper()
	shareIfAsked(w)
	live, err := NewWorkerCentric(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*storage.Store, sites)
	for i := range stores {
		if stores[i], err = storage.New(2*indexFor(w).maxFiles, storage.LRU); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sites+2; i++ { // two sites nothing happens at
		live.AttachSite(i)
	}
	type exec struct {
		task workload.TaskID
		at   WorkerRef
	}
	var log []historyEvent
	var running []exec
	drv := rand.New(rand.NewSource(cfg.Seed*131 + int64(cfg.Metric)))
	for live.Remaining() > len(w.Tasks)/3 {
		if len(running) == 0 || drv.Intn(3) > 0 {
			at := WorkerRef{Site: drv.Intn(sites - 1), Worker: drv.Intn(2)}
			if live.Remaining() < len(w.Tasks)*2/3 && drv.Intn(4) == 0 {
				at.Site = sites - 1 // the late site
			}
			task, status := live.NextFor(at)
			if status != Assigned {
				continue
			}
			fetched, evicted, err := stores[at.Site].CommitBatchInto(task.Files, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			live.NoteBatch(at.Site, task.Files, fetched, evicted)
			log = append(log, historyEvent{0, task.ID, at, task.Files, fetched, evicted})
			running = append(running, exec{task.ID, at})
			continue
		}
		i := drv.Intn(len(running))
		e := running[i]
		running = append(running[:i], running[i+1:]...)
		if drv.Intn(4) == 0 {
			live.OnExecutionFailed(e.task, e.at)
			log = append(log, historyEvent{op: 2, task: e.task, at: e.at})
		} else {
			live.OnTaskComplete(e.task, e.at)
			log = append(log, historyEvent{op: 1, task: e.task, at: e.at})
		}
	}
	// What a crash leaves in flight expires back into the queue.
	for _, e := range running {
		live.OnExecutionFailed(e.task, e.at)
		log = append(log, historyEvent{op: 2, task: e.task, at: e.at})
	}
	return live, log
}

// applyHistory drives a fresh scheduler through log: ReplayAssign where the
// run called NextFor, everything else as the run called it. With bulk the
// whole log sits between BeginReplay and EndReplay(draws).
func applyHistory(t *testing.T, w *workload.Workload, cfg WorkerCentricConfig, sites int, log []historyEvent, bulk bool, draws uint64) *WorkerCentric {
	t.Helper()
	s, err := NewWorkerCentric(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sites+2; i++ {
		s.AttachSite(i)
	}
	if bulk {
		s.BeginReplay()
	}
	for i, e := range log {
		switch e.op {
		case 0:
			if err := s.ReplayAssign(e.task, e.at); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			s.NoteBatch(e.at.Site, e.batch, e.fetched, e.evicted)
		case 1:
			s.OnTaskComplete(e.task, e.at)
		case 2:
			s.OnExecutionFailed(e.task, e.at)
		}
	}
	if bulk {
		if err := s.EndReplay(draws); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// classMembers is an index's class membership with the heap layout taken
// out: per class, the members in the order requests read them.
func classMembers(x *siteIndex) [][]workload.TaskID {
	out := make([][]workload.TaskID, len(x.heaps))
	for c := range out {
		out[c] = x.topK(c, x.classLen(c), nil)
	}
	return out
}

// TestBulkReplayMatchesReask: a history applied by folding must leave the
// scheduler a history applied by re-asking leaves, and both the scheduler
// that lived it — the pending set and its order tree, every site's mirror
// arrays, totals and class membership, the random stream's position — and
// then decide alike from there on.
func TestBulkReplayMatchesReask(t *testing.T) {
	const sites = 4
	for _, metric := range []Metric{MetricOverlap, MetricRest, MetricCombined, MetricCombinedLiteral} {
		for _, chooseN := range []int{1, 2} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s.n%d.seed%d", metric, chooseN, seed), func(t *testing.T) {
					gen := workload.CoaddSmallConfig(seed)
					gen.Tasks = 240
					w, err := workload.GenerateCoadd(gen)
					if err != nil {
						t.Fatal(err)
					}
					cfg := WorkerCentricConfig{Metric: metric, ChooseN: chooseN, Seed: seed}
					live, log := recordHistory(t, w, cfg, sites)
					reasked := applyHistory(t, w, cfg, sites, log, false, 0)
					folded := applyHistory(t, w, cfg, sites, log, true, live.Draws())

					for name, s := range map[string]*WorkerCentric{"re-asked": reasked, "folded": folded} {
						checkIndexInvariants(t, s)
						if s.Draws() != live.Draws() {
							t.Errorf("%s: %d draws, the run took %d", name, s.Draws(), live.Draws())
						}
						if s.Remaining() != live.Remaining() || s.pendingN != live.pendingN {
							t.Errorf("%s: remaining %d pending %d, the run has %d and %d",
								name, s.Remaining(), s.pendingN, live.Remaining(), live.pendingN)
						}
						if !reflect.DeepEqual(s.alive, live.alive) || !reflect.DeepEqual(s.completed, live.completed) {
							t.Errorf("%s: pending or completed set differs from the run's", name)
						}
						if !reflect.DeepEqual(s.order.tree, live.order.tree) {
							t.Errorf("%s: order tree differs from the run's", name)
						}
						for site, want := range live.indexes {
							got := s.indexes[site]
							if (got == nil) != (want == nil) {
								t.Fatalf("%s: site %d built = %v, in the run %v", name, site, got != nil, want != nil)
							}
							if want == nil {
								continue
							}
							for _, f := range []struct {
								what      string
								got, want any
							}{
								{"resident", got.m.resident, want.m.resident},
								{"refs", got.m.refs, want.m.refs},
								{"overlap", got.m.overlap, want.m.overlap},
								{"refSum", got.m.refSum, want.m.refSum},
								{"totalRef", got.totalRef, want.totalRef},
								{"class membership", classMembers(got), classMembers(want)},
							} {
								if !reflect.DeepEqual(f.got, f.want) {
									t.Errorf("%s: site %d: %s differs from the run's", name, site, f.what)
								}
							}
						}
					}
					if t.Failed() {
						return
					}

					// From here on all three are one scheduler.
					drv := rand.New(rand.NewSource(seed))
					for i := 0; i < 200; i++ {
						at := WorkerRef{Site: drv.Intn(sites + 1)} // one never used until now
						want, ws := live.NextFor(at)
						for name, s := range map[string]*WorkerCentric{"re-asked": reasked, "folded": folded} {
							if got, gs := s.NextFor(at); gs != ws || got.ID != want.ID {
								t.Fatalf("decision %d at site %d: %s (%v, task %d), the run (%v, task %d)", i, at.Site, name, gs, got.ID, ws, want.ID)
							}
						}
						if ws != Assigned {
							break
						}
						fetched, fails := want.Files[:drv.Intn(len(want.Files)+1)], drv.Intn(5) == 0
						for _, s := range []*WorkerCentric{live, reasked, folded} {
							s.NoteBatch(at.Site, want.Files, fetched, nil)
							if fails {
								s.OnExecutionFailed(want.ID, at)
							}
						}
					}
					if folded.Draws() != live.Draws() || reasked.Draws() != live.Draws() {
						t.Fatalf("after 200 decisions: %d draws folded, %d re-asked, %d in the run", folded.Draws(), reasked.Draws(), live.Draws())
					}
					checkIndexInvariants(t, folded)
				})
			}
		}
	}
}

// TestBulkReplayRefuses: what a fold does not take on trust.
func TestBulkReplayRefuses(t *testing.T) {
	w := sharedWorkload(12, 4)
	fresh := func() *WorkerCentric {
		s, err := NewWorkerCentric(w, WorkerCentricConfig{Metric: MetricCombined, ChooseN: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		s.AttachSite(0)
		return s
	}
	for _, tc := range []struct {
		name string
		run  func(s *WorkerCentric) error
		want string
	}{
		{"task assigned twice", func(s *WorkerCentric) error {
			s.BeginReplay()
			if err := s.ReplayAssign(3, WorkerRef{}); err != nil {
				return err
			}
			return s.ReplayAssign(3, WorkerRef{Worker: 1})
		}, "task 3 assigned at {Site:0 Worker:1} is not pending"},
		{"completed task assigned", func(s *WorkerCentric) error {
			s.BeginReplay()
			if err := s.ReplayAssign(3, WorkerRef{}); err != nil {
				return err
			}
			s.OnTaskComplete(3, WorkerRef{})
			s.OnExecutionFailed(3, WorkerRef{}) // a late expiry of the same execution
			return s.ReplayAssign(3, WorkerRef{})
		}, "not pending"},
		{"unknown task", func(s *WorkerCentric) error {
			s.BeginReplay()
			return s.ReplayAssign(12, WorkerRef{})
		}, "not pending"},
		{"unattached site", func(s *WorkerCentric) error {
			s.BeginReplay()
			return s.ReplayAssign(3, WorkerRef{Site: 1})
		}, "unattached site 1"},
		{"draws behind the stream", func(s *WorkerCentric) error {
			s.NextFor(WorkerRef{})
			s.NextFor(WorkerRef{})
			have := s.Draws()
			if have == 0 {
				t.Fatal("two combined.2 decisions took no draw")
			}
			s.BeginReplay()
			return s.EndReplay(have - 1)
		}, "already taken"},
		{"draws beyond the history", func(s *WorkerCentric) error {
			s.BeginReplay()
			if err := s.ReplayAssign(3, WorkerRef{}); err != nil {
				return err
			}
			return s.EndReplay(1 << 60)
		}, "for 1 assignments"},
		{"draws without assignments", func(s *WorkerCentric) error {
			s.BeginReplay()
			return s.EndReplay(1)
		}, "for 0 assignments"},
		{"end without begin", func(s *WorkerCentric) error {
			return s.EndReplay(0)
		}, "outside a replay"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(fresh())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}

	// Outside a replay ReplayAssign is the re-ask: the recorded decision or
	// an error, and the draws a NextFor takes.
	a, b := fresh(), fresh()
	want, _ := a.NextFor(WorkerRef{})
	if err := b.ReplayAssign(want.ID, WorkerRef{}); err != nil {
		t.Fatal(err)
	}
	if a.Draws() != b.Draws() {
		t.Fatalf("re-asked ReplayAssign took %d draws, NextFor %d", b.Draws(), a.Draws())
	}
	next, _ := a.NextFor(WorkerRef{})
	other := (next.ID + 1) % workload.TaskID(len(w.Tasks))
	if err := b.ReplayAssign(other, WorkerRef{}); err == nil || !strings.Contains(err.Error(), "journal says") {
		t.Fatalf("re-asked ReplayAssign of the wrong task: %v", err)
	}
}

// TestCountingSourceKeepsTheStream: the counter changes no value, and counts
// one per value whichever rand.Rand method took it.
func TestCountingSourceKeepsTheStream(t *testing.T) {
	src := &countingSource{src: rand.NewSource(42)}
	counted, plain := rand.New(src), rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		if a, b := counted.Intn(6000-i), plain.Intn(6000-i); a != b {
			t.Fatalf("Intn #%d: %d counted, %d plain", i, a, b)
		}
		if a, b := counted.Float64(), plain.Float64(); a != b {
			t.Fatalf("Float64 #%d: %v counted, %v plain", i, a, b)
		}
	}
	if src.n < 2000 {
		t.Fatalf("%d draws counted for 2000 values", src.n)
	}
	// Skipping n values lands where taking them did.
	skipped := &countingSource{src: rand.NewSource(42)}
	for skipped.n < src.n {
		skipped.Int63()
	}
	if a, b := rand.New(skipped).Float64(), counted.Float64(); a != b {
		t.Fatalf("after %d skipped values: %v, after taking them: %v", src.n, a, b)
	}
}
