package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"gridsched/internal/workload"
)

// checkIndexInvariants recomputes from first principles everything a
// WorkerCentric maintains incrementally — the order tree from the pending
// set, each built site's overlap/refSum from its resident set and its class
// structures from the pending set — and fails the test on the first
// disagreement. White-box on purpose: the
// decisions only read the top of each class, so a misfiled task deep in a
// heap would otherwise surface many requests later, or never.
func checkIndexInvariants(t testing.TB, s *WorkerCentric) {
	t.Helper()
	if len(s.touched) != 0 {
		t.Fatalf("touched list holds %d tasks between batches", len(s.touched))
	}
	for id, d := range s.delta {
		if d != (taskDelta{}) {
			t.Fatalf("task %d: scratch %+v left over between batches", id, d)
		}
	}
	// The order tree, against the pending flags.
	pending := 0
	for id, alive := range s.alive {
		if !alive {
			continue
		}
		if got := s.order.kth(pending); int(got) != id {
			t.Fatalf("order tree: pending task #%d is %d, alive says %d", pending, got, id)
		}
		pending++
	}
	if pending != s.pendingN {
		t.Fatalf("%d tasks alive, pendingN = %d", pending, s.pendingN)
	}
	built := 0
	for site, x := range s.indexes {
		if x == nil {
			continue // attached, never used: nothing is maintained for it yet
		}
		built++
		m := x.m
		where := func(id int) string { return fmt.Sprintf("site %d task %d", site, id) }

		// The mirror, against a naive recompute.
		if !m.trackRefs && (m.refs != nil || m.refSum != nil) {
			t.Fatalf("site %d: reference arrays allocated under a metric that never reads them", site)
		}
		var totalRef int64
		for id, task := range s.w.Tasks {
			var overlap int32
			var refSum int64
			for _, f := range task.Files {
				if m.resident[f] {
					overlap++
					if m.trackRefs {
						refSum += int64(m.refs[f])
					}
				}
			}
			if m.overlap[id] != overlap {
				t.Fatalf("%s: overlap %d, recomputed %d", where(id), m.overlap[id], overlap)
			}
			if m.trackRefs && m.refSum[id] != refSum {
				t.Fatalf("%s: refSum %d, recomputed %d", where(id), m.refSum[id], refSum)
			}
			if s.alive[id] && m.trackRefs {
				totalRef += m.refSum[id]
			}
		}
		if x.needTotals && x.totalRef != totalRef {
			t.Fatalf("site %d: totalRef %d, recomputed %d", site, x.totalRef, totalRef)
		}

		// The classes: every pending task in exactly the class its key
		// names, nothing else anywhere.
		filed := make([]bool, len(s.alive))
		members := 0
		file := func(c int, id workload.TaskID) {
			if !s.alive[id] {
				t.Fatalf("%s: in class %d but not pending", where(int(id)), c)
			}
			if filed[id] {
				t.Fatalf("%s: filed twice", where(int(id)))
			}
			if key := x.classKey(id); key != c {
				t.Fatalf("%s: in class %d, key says %d", where(int(id)), c, key)
			}
			filed[id] = true
			members++
		}
		for c := range x.heaps {
			if x.usesHeap(c) {
				h := x.heaps[c]
				for i, id := range h {
					file(c, id)
					if int(x.pos[id]) != i {
						t.Fatalf("%s: at slot %d of class %d, pos says %d", where(int(id)), i, c, x.pos[id])
					}
					if i > 0 && x.less(c, id, h[(i-1)/2]) {
						t.Fatalf("site %d class %d: slot %d (task %d) outranks its parent (task %d)", site, c, i, id, h[(i-1)/2])
					}
				}
				if x.counts[c] != 0 || x.sets[c] != nil {
					t.Fatalf("site %d class %d: heap class with bitset state", site, c)
				}
			} else {
				n := 0
				for wi, w := range x.sets[c] {
					n += bits.OnesCount64(w)
					for ; w != 0; w &= w - 1 {
						file(c, workload.TaskID(wi*64+bits.TrailingZeros64(w)))
					}
				}
				if int(x.counts[c]) != n {
					t.Fatalf("site %d class %d: counts %d, %d bits set", site, c, x.counts[c], n)
				}
				if len(x.heaps[c]) != 0 {
					t.Fatalf("site %d class %d: bitset class with a heap", site, c)
				}
			}
			if nonEmpty := x.nonEmpty.has(c); nonEmpty != (x.classLen(c) > 0) {
				t.Fatalf("site %d class %d: bits says non-empty=%v, population %d", site, c, nonEmpty, x.classLen(c))
			}
		}
		if members != s.pendingN {
			t.Fatalf("site %d: %d tasks filed, %d pending", site, members, s.pendingN)
		}
		for id := range s.alive {
			if !filed[id] && x.pos[id] != -1 {
				t.Fatalf("%s: not in a heap but pos = %d", where(id), x.pos[id])
			}
		}
	}
	if built != len(s.indexList) {
		t.Fatalf("%d sites built, %d on the index list", built, len(s.indexList))
	}
}

// sharedIndexRun is set while TestDifferentialsOverSharedIndex runs the
// differential tests a second time: their helpers then ask for the shared
// index (ShareIndex) of every workload they are handed, so the combined
// metrics' NoteBatch takes the neighbour walk wherever a batch allows it.
var sharedIndexRun bool

func shareIfAsked(w *workload.Workload) {
	if sharedIndexRun {
		ShareIndex(w)
	}
}

// TestDifferentialsOverSharedIndex holds the neighbour walk to the tests
// that define the decisions: the golden reference driver, the bulk replay
// and the pruned gather, each run as it stands over workloads whose index
// carries the neighbour table.
func TestDifferentialsOverSharedIndex(t *testing.T) {
	sharedIndexRun = true
	defer func() { sharedIndexRun = false }()
	t.Run("golden", TestGoldenEquivalenceWithNaiveScan)
	t.Run("bulk-replay", TestBulkReplayMatchesReask)
	t.Run("pruned-gather", TestCombinedGatherPrunedMatchesFull)
}

// TestNoteBatchCoalescingMatchesNaive drives the indexed scheduler and the
// naive scan in lockstep through batches no storage.Store would produce —
// the events are drawn at random, so a task routinely gains and loses
// files in one batch, fetches and evictions repeat or contradict the
// resident set, and most of a batch's fan-out lands on tasks that are
// assigned or complete. Between batches tasks are assigned, failed back
// into the queue, and completed. Every decision must match the naive one
// draw for draw, and the index must check out after every batch.
//
// Each case runs over a private index and over a shared one (ShareIndex),
// whose neighbour table the combined metrics walk when a batch is a task's
// file list with all of it resident. The dispatch batches are such lists —
// fetched in full, fetched in part so that a member is still absent when
// the references are counted, and as a copy rather than the task's own
// slice — and the workload has what the table could get wrong: two tasks
// with the same file list, a file with one reader among shared ones, and a
// task that is the only reader of its only file.
func TestNoteBatchCoalescingMatchesNaive(t *testing.T) {
	const (
		windowFiles = 48
		files       = windowFiles + 2 // and two files with one reader each
		windows     = 90
		sites       = 2
		steps       = 1500
	)
	for _, metric := range []Metric{MetricOverlap, MetricRest, MetricCombined, MetricCombinedLiteral} {
		for _, chooseN := range []int{1, 2} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%s.n%d.seed%d", metric, chooseN, seed), func(t *testing.T) {
					for _, shared := range []bool{false, true} {
						name := "private-index"
						if shared {
							name = "shared-index"
						}
						t.Run(name, func(t *testing.T) {
							drv := rand.New(rand.NewSource(seed*104729 + int64(metric)*31 + int64(chooseN)))
							someFiles := func(max int) []workload.FileID {
								out := make([]workload.FileID, drv.Intn(max+1))
								for i := range out {
									out[i] = workload.FileID(drv.Intn(files)) // repeats allowed
								}
								return out
							}
							var lists [][]workload.FileID
							for id := 0; id < windows; id++ {
								// A window of neighbouring files, like a Coadd stripe:
								// neighbours share most of their readers.
								start, n := drv.Intn(windowFiles-8), 2+drv.Intn(6)
								var window []workload.FileID
								for f := start; f < start+n; f++ {
									window = append(window, workload.FileID(f))
								}
								lists = append(lists, window)
							}
							lists = append(lists,
								slices.Clone(lists[5]),                         // the same list as task 5
								append(slices.Clone(lists[7]), windowFiles),    // a one-reader file among shared ones
								[]workload.FileID{windowFiles + 1},             // the only reader of its only file
								slices.Clone(lists[9]), slices.Clone(lists[9])) // and the same list three times
							w := stagedWorkload(files, lists...)
							if shared {
								ShareIndex(w)
							}
							cfg := WorkerCentricConfig{Metric: metric, ChooseN: chooseN, Seed: seed}
							opt, err := NewWorkerCentric(w, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got := opt.idx.neighbours.Load() != nil; got != shared {
								t.Fatalf("neighbour table present = %v over a shared=%v index", got, shared)
							}
							ref, err := newNaiveWorkerCentric(w, cfg)
							if err != nil {
								t.Fatal(err)
							}
							for site := 0; site < sites; site++ {
								opt.AttachSite(site)
								ref.AttachSite(site)
							}
							note := func(site int, batch, fetched, evicted []workload.FileID) {
								t.Helper()
								opt.NoteBatch(site, batch, fetched, evicted)
								ref.NoteBatch(site, batch, fetched, evicted)
								checkIndexInvariants(t, opt)
								// The naive mirror tracks everything; the indexed one
								// must agree on whatever it maintains.
								got, want := opt.indexes[site].m, ref.mirrors[site]
								if !slices.Equal(got.overlap, want.overlap) || !slices.Equal(got.resident, want.resident) {
									t.Fatalf("site %d: overlap or resident set differs from the naive mirror's", site)
								}
								if got.trackRefs && (!slices.Equal(got.refSum, want.refSum) || !slices.Equal(got.refs, want.refs)) {
									t.Fatalf("site %d: refSum or refs differ from the naive mirror's", site)
								}
							}

							// The sift-down case, staged rather than hoped for: task 0
							// reads files a and b; a is resident and often referenced, b
							// is neither. Swapping a for b in one batch leaves task 0's
							// overlap alone and lowers its refSum.
							a, b := w.Tasks[0].Files[0], w.Tasks[0].Files[1]
							note(0, nil, []workload.FileID{a}, nil)
							for i := 0; i < 3; i++ {
								note(0, []workload.FileID{a}, nil, nil)
							}
							m := ref.mirrors[0]
							before := [2]int64{int64(m.overlap[0]), m.refSum[0]}
							note(0, nil, []workload.FileID{b}, []workload.FileID{a})
							if int64(m.overlap[0]) != before[0] || m.refSum[0] >= before[1] {
								t.Fatalf("staged swap: overlap %d -> %d, refSum %d -> %d; want overlap kept, refSum lowered",
									before[0], m.overlap[0], before[1], m.refSum[0])
							}

							// Task lists as batches, staged: every list — the twins,
							// the one-reader files — all resident, then with its last
							// file evicted in the same batch and so absent when the
							// references are counted.
							for _, task := range w.Tasks[windows-1:] {
								if row := opt.idx.neighboursOf(w, task.Files); (row != nil) != shared {
									t.Fatalf("task %d: neighbour row found = %v over a shared=%v index", task.ID, row != nil, shared)
								}
								last := len(task.Files) - 1
								note(1, task.Files, task.Files, nil)
								note(1, task.Files, task.Files[:last], task.Files[last:])
								note(1, slices.Clone(task.Files), task.Files, nil)
							}

							var inflight []workload.TaskID
							for step := 0; step < steps; step++ {
								switch k := drv.Intn(10); {
								case k < 4:
									note(drv.Intn(sites), someFiles(8), someFiles(6), someFiles(6))
								case k < 7:
									at := WorkerRef{Site: drv.Intn(sites)}
									got, gs := opt.NextFor(at)
									want, ws := ref.NextFor(at)
									if gs != ws || got.ID != want.ID {
										t.Fatalf("step %d at site %d: indexed (%v, task %d), naive (%v, task %d)", step, at.Site, gs, got.ID, ws, want.ID)
									}
									if gs != Assigned {
										break
									}
									inflight = append(inflight, got.ID)
									// The dispatch's own batch: all of the task's files
									// referenced, and fetched in full, in part, or in
									// full under a copy of the list.
									switch drv.Intn(3) {
									case 0:
										note(at.Site, got.Files, got.Files, nil)
									case 1:
										note(at.Site, got.Files, got.Files[:drv.Intn(len(got.Files)+1)], someFiles(3))
									case 2:
										note(at.Site, slices.Clone(got.Files), got.Files, nil)
									}
								case len(inflight) > 0:
									i := drv.Intn(len(inflight))
									id := inflight[i]
									inflight = append(inflight[:i], inflight[i+1:]...)
									if k < 9 {
										// Back into the queue, to be filed under whatever
										// the mirrors say by now.
										opt.OnExecutionFailed(id, WorkerRef{})
										ref.OnExecutionFailed(id, WorkerRef{})
									} else {
										opt.OnTaskComplete(id, WorkerRef{})
										ref.OnTaskComplete(id, WorkerRef{})
									}
									checkIndexInvariants(t, opt)
								}
							}
						})
					}
				})
			}
		}
	}
}
