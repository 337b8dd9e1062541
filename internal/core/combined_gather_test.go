package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gridsched/internal/workload"
)

// gatherCombinedFull is the gather chooseTask ran under the combined metrics
// before it learnt to look at roots first: the per-class top ChooseN of
// *every* non-empty missing class. It is kept, like naiveWorkerCentric, as
// the test-only reference the pruned gatherCombined is compared with.
func gatherCombinedFull(s *WorkerCentric, x *siteIndex) {
	totalRef, totalRest := x.combinedTotals()
	for c := x.nextClassAbove(0); c > 0; c = x.nextClassAbove(c) {
		s.picked = x.topK(c, s.cfg.ChooseN, s.picked[:0])
		for _, id := range s.picked {
			s.cand = append(s.cand, candidate{id: id, weight: s.combinedWeight(x, id, totalRef, totalRest)})
		}
	}
}

// checkPrunedGather compares, at every built site, the top-ChooseN array
// ChooseTask(n) would draw from after the pruned gather with the one after
// the full gather: same length, same ids, same weights, same order. It
// returns the array of the site asked for.
func checkPrunedGather(t *testing.T, s *WorkerCentric, site int) []candidate {
	t.Helper()
	var at []candidate
	for id, x := range s.indexes {
		if x == nil {
			continue
		}
		s.cand = s.cand[:0]
		gatherCombinedFull(s, x)
		full := slices.Clone(s.topN())
		s.cand = s.cand[:0]
		s.gatherCombined(x)
		pruned := slices.Clone(s.topN())
		if !slices.Equal(pruned, full) {
			t.Fatalf("site %d, ChooseN %d: pruned gather's top %v, full gather's %v", id, s.cfg.ChooseN, pruned, full)
		}
		if want := min(s.cfg.ChooseN, s.pendingN-x.classLen(0)); len(pruned) != want {
			t.Fatalf("site %d: top holds %d candidates, want %d", id, len(pruned), want)
		}
		if id == site {
			at = pruned
		}
	}
	return at
}

func stagedWorkload(files int, tasks ...[]workload.FileID) *workload.Workload {
	w := &workload.Workload{Name: "staged", NumFiles: files}
	for id, f := range tasks {
		w.Tasks = append(w.Tasks, workload.Task{ID: workload.TaskID(id), Files: f})
	}
	shareIfAsked(w)
	return w
}

// TestCombinedGatherPrunedMatchesFull is the differential for chooseTask's
// two-pass gather: over random index states and over staged corner cases,
// the candidates it hands ChooseTask(n) are the ones the full per-class
// gather hands it.
func TestCombinedGatherPrunedMatchesFull(t *testing.T) {
	metrics := []Metric{MetricCombined, MetricCombinedLiteral}
	for _, metric := range metrics {
		for _, chooseN := range []int{1, 2, 3} {
			cfg := WorkerCentricConfig{Metric: metric, ChooseN: chooseN, Seed: 1}
			name := fmt.Sprintf("%s.n%d", metric, chooseN)

			// Two classes whose roots weigh the same. Task a misses one file
			// and holds a resident file referenced once; b and b2 miss two
			// each and hold resident files referenced twice and once. Then
			// totalRef = 4 and totalRest = 1/1 + 2/2 = 2, and under combined
			// a weighs 1/4 + (1/1)/2 and b 2/4 + (1/2)/2: both exactly 0.75,
			// b2 0.5 — so only the task id orders a and b, and it has to do
			// so across classes in both directions.
			for _, order := range [][3]workload.TaskID{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
				t.Run(fmt.Sprintf("%s/equal-roots/%v", name, order), func(t *testing.T) {
					a, b, b2 := order[0], order[1], order[2]
					files := make([][]workload.FileID, 3)
					files[a] = []workload.FileID{0, 1}
					files[b] = []workload.FileID{2, 3, 4}
					files[b2] = []workload.FileID{5, 6, 7}
					s, err := NewWorkerCentric(stagedWorkload(8, files...), cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.AttachSite(0)
					s.NoteBatch(0, []workload.FileID{0, 2, 5}, []workload.FileID{0, 2, 5}, nil)
					s.NoteBatch(0, []workload.FileID{2}, nil, nil)
					checkIndexInvariants(t, s)
					top := checkPrunedGather(t, s, 0)
					if metric == MetricCombined {
						want := []candidate{{id: min(a, b), weight: 0.75}, {id: max(a, b), weight: 0.75}, {id: b2, weight: 0.5}}
						if !slices.Equal(top, want[:chooseN]) {
							t.Fatalf("top %v, want %v", top, want[:chooseN])
						}
					}
					// Fewer pending tasks than ChooseN: drain, comparing as
					// the queue shrinks to two, one and no candidates.
					for s.pendingN > 0 {
						if _, st := s.NextFor(WorkerRef{Site: 0}); st != Assigned {
							t.Fatalf("status %v with %d pending", st, s.pendingN)
						}
						checkPrunedGather(t, s, 0)
					}
				})
			}

			// One non-empty class: nothing resident, every task misses all
			// three of its files, every weight is equal.
			t.Run(name+"/single-class", func(t *testing.T) {
				var files [][]workload.FileID
				for id := 0; id < 5; id++ {
					files = append(files, []workload.FileID{workload.FileID(id), workload.FileID(id + 1), workload.FileID(id + 2)})
				}
				s, err := NewWorkerCentric(stagedWorkload(7, files...), cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.AttachSite(0)
				s.NoteBatch(0, nil, nil, nil)
				top := checkPrunedGather(t, s, 0)
				for i, c := range top {
					if int(c.id) != i {
						t.Fatalf("top %v: equal weights must rank by id", top)
					}
				}
			})

			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/random/seed%d", name, seed), func(t *testing.T) {
					const (
						files = 48
						tasks = 90
						sites = 2
						steps = 1200
					)
					drv := rand.New(rand.NewSource(seed*7919 + int64(metric)*131 + int64(chooseN)))
					someFiles := func(max int) []workload.FileID {
						out := make([]workload.FileID, drv.Intn(max+1))
						for i := range out {
							out[i] = workload.FileID(drv.Intn(files))
						}
						return out
					}
					var windows [][]workload.FileID
					for id := 0; id < tasks; id++ {
						start, n := drv.Intn(files-8), 2+drv.Intn(6)
						var window []workload.FileID
						for f := start; f < start+n; f++ {
							window = append(window, workload.FileID(f))
						}
						windows = append(windows, window)
					}
					cfg := cfg
					cfg.Seed = seed
					s, err := NewWorkerCentric(stagedWorkload(files, windows...), cfg)
					if err != nil {
						t.Fatal(err)
					}
					for site := 0; site < sites; site++ {
						s.AttachSite(site)
					}
					var inflight []workload.TaskID
					for step := 0; step < steps; step++ {
						switch k := drv.Intn(10); {
						case k < 4:
							s.NoteBatch(drv.Intn(sites), someFiles(8), someFiles(6), someFiles(6))
						case k < 7:
							at := WorkerRef{Site: drv.Intn(sites)}
							if task, st := s.NextFor(at); st == Assigned {
								inflight = append(inflight, task.ID)
								s.NoteBatch(at.Site, task.Files, task.Files[:drv.Intn(len(task.Files)+1)], someFiles(3))
							}
						case len(inflight) > 0:
							i := drv.Intn(len(inflight))
							id := inflight[i]
							inflight = append(inflight[:i], inflight[i+1:]...)
							if k < 9 {
								s.OnExecutionFailed(id, WorkerRef{})
							} else {
								s.OnTaskComplete(id, WorkerRef{})
							}
						}
						checkPrunedGather(t, s, 0)
					}
				})
			}
		}
	}
}
