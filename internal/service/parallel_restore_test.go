package service_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridsched/internal/metrics"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
)

// restoreFleet is the resident state TestParallelRestoreIdentity recovers:
// which jobs run, under what, and how far each got before the checkpoint.
// Ledger lengths are unequal on purpose — restore hands its goroutines the
// longest first — and hold leaves one lease open across the crash.
var restoreFleet = []struct {
	tag, algo, tenant string
	tasks, ok, fail   int
	hold              bool
}{
	{"a", "combined.2", "ta", 40, 25, 0, true},
	{"d", "rest", "ta", 50, 33, 0, true},
	{"c", "workqueue", "", 30, 7, 1, false},
	{"f", "overlap.2", "tc", 36, 1, 0, true},
	{"e", "context:combined.2", "tb", 24, 12, 3, false},
	{"g", "workqueue", "tc", 16, 16, 0, false}, // runs to completion
	{"h", "combined.2", "", 28, 20, 1, false},
	{"i", "combined-literal", "ta", 44, 9, 2, false},
	{"z", "workqueue", "tb", 3, 2, 0, false}, // one task short of done
}

// fleetJobID finds a job by the tag it was submitted under: job, worker and
// assignment ids come from one sequence, so they are looked up, not assumed.
func fleetJobID(t *testing.T, s *service.Service, tag string) string {
	t.Helper()
	for _, st := range s.Jobs() {
		if st.Name == tag {
			return st.ID
		}
	}
	t.Fatalf("no job named %q", tag)
	return ""
}

// buildRestoreFleet drives a live leader into the state under test and
// returns it with its data dir: the fleet above, plus a storage-affinity
// job whose ledger holds a replica that won, plus a job cut mid-speculation
// (primary and twin both open) — all in the checkpoint — and a journal tail
// on top. Every running job but the speculating one has at most one lease
// open, so the order their expiries land in cannot matter.
func buildRestoreFleet(t *testing.T, clk *policyClock) (*service.Service, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := specDurableConfig(dir, clk)
	cfg.SnapshotEvery = 1 << 20
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	m := &mirror{t: t, clk: clk, dir: dir, s: s}

	for i, p := range restoreFleet {
		m.submit(p.tag, p.algo, p.tenant, p.tasks)
		w := m.register(i%2, p.tag)
		for n := 0; n < p.ok+p.fail; n++ {
			outcome := api.OutcomeSuccess
			if n%4 == 1 && n/4 < p.fail {
				outcome = api.OutcomeFailure
			}
			m.report(m.mustPull(w), w, outcome, int64(20+7*n%50))
		}
		switch {
		case p.hold:
			m.mustPull(w)
		default:
			if err := s.Deregister(w); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Storage affinity replicates once its queue is empty: with every task
	// started and two still held, a third worker is handed a replica of one
	// of them, wins, and the beaten original reports in cancelled. The other
	// stays held.
	m.submit("b", "storage-affinity", "tb", 6)
	hold := []string{m.register(0, "b"), m.register(1, "b")}
	for n := 0; n < 4; n++ {
		m.report(m.mustPull(hold[0]), hold[0], api.OutcomeSuccess, 30)
	}
	held := []*api.Assignment{m.mustPull(hold[0]), m.mustPull(hold[1])}
	third := m.register(1, "b")
	replica := m.mustPull(third)
	if rep := m.report(replica, third, api.OutcomeSuccess, 15); rep.Cancelled {
		t.Fatalf("winning replica: %+v", rep)
	}
	beaten := 0
	if held[1].Task.ID == replica.Task.ID {
		beaten = 1
	} else if held[0].Task.ID != replica.Task.ID {
		t.Fatalf("replica runs task %d, held are %d and %d", replica.Task.ID, held[0].Task.ID, held[1].Task.ID)
	}
	if rep := m.report(held[beaten], hold[beaten], api.OutcomeSuccess, 200); !rep.Cancelled {
		t.Fatalf("beaten original: %+v", rep)
	}
	for _, w := range []string{third, hold[beaten]} {
		if err := s.Deregister(w); err != nil {
			t.Fatal(err)
		}
	}

	m.submit("twin", "workqueue", "", 8)
	m.stageTwin("twin")

	if err := s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	// The tail: a few more events over jobs the checkpoint restored.
	for _, tag := range []string{"c", "i"} {
		w := m.register(0, tag)
		m.report(m.mustPull(w), w, api.OutcomeSuccess, 40)
		m.report(m.mustPull(w), w, api.OutcomeFailure, 5)
		if err := s.Deregister(w); err != nil {
			t.Fatal(err)
		}
	}
	return s, dir
}

// recoverAt recovers dir with procs cores.
func recoverAt(dir string, clk *policyClock, procs int) (*service.Service, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := specDurableConfig(dir, clk)
	cfg.SnapshotEvery = 1 << 20
	return service.New(cfg)
}

// drainOrder drains every open job through one worker that carries every
// tag, from virtual time at, and returns the (job, task) dispatch order.
func drainOrder(t *testing.T, s *service.Service, clk *policyClock, at int64) []string {
	t.Helper()
	clk.ms.Store(at)
	tags := []string{"b", "twin"}
	for _, p := range restoreFleet {
		tags = append(tags, p.tag)
	}
	reg, err := s.RegisterWorker(0, tags)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for {
		resp, err := s.Pull(nil, reg.WorkerID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != api.StatusAssigned {
			if resp.OpenJobs != 0 {
				t.Fatalf("drain starved after %d tasks with %d jobs open", len(order), resp.OpenJobs)
			}
			return order
		}
		order = append(order, fmt.Sprintf("%s/%d", resp.Assignment.JobID, resp.Assignment.Task.ID))
		clk.ms.Add(10)
		if _, err := s.Report(resp.Assignment.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelRestoreIdentity: restore rebuilds and replays the running
// jobs of a checkpoint side by side, and what comes back must not depend on
// how many did at once. Ten running jobs of mixed algorithms and unequal
// ledgers sit next to a completed job; a copy of the data
// dir is recovered on one core and on four. Both recoveries must equal each
// other and the live leader (brought to the same place the only way a live
// one can be: every worker deregisters) in every job, tenant and slot EWMA,
// and then drain every remaining task in the same order.
func TestParallelRestoreIdentity(t *testing.T) {
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
	leader, dir := buildRestoreFleet(t, clk)
	var running int
	for _, st := range leader.Jobs() {
		if st.State == api.JobRunning {
			running++
		}
	}
	if running < 8 {
		t.Fatalf("only %d jobs running at the cut", running)
	}

	type view struct {
		jobs    []api.JobStatus
		tenants []api.TenantStatus
		slots   []api.WorkerStatus
		drain   []string
		done    []api.JobStatus
	}
	cut := clk.ms.Load()
	look := func(s *service.Service) view {
		v := view{jobs: s.Jobs(), tenants: normalizeTenants(s.Tenants()), slots: allSlotsTelemetry(t, s)}
		v.drain = drainOrder(t, s, clk, cut)
		v.done = s.Jobs()
		return v
	}
	views := map[string]view{}
	for _, procs := range []int{1, 4} {
		rec, err := recoverAt(copyDirForTest(t, dir), clk, procs)
		if err != nil {
			t.Fatalf("recovery on %d cores: %v", procs, err)
		}
		// The phase gauges account for the whole recovery, restore included.
		c, phases := rec.Counters(), int64(0)
		for i := range c.ReplayPhaseNanos {
			phases += c.ReplayPhaseNanos[i].Load()
		}
		if restore := c.ReplayPhaseNanos[metrics.ReplayRestore].Load(); restore <= 0 || phases != c.ReplayNanos.Load() {
			t.Errorf("recovery on %d cores: phases sum to %dns of %dns, restore %dns", procs, phases, c.ReplayNanos.Load(), restore)
		}
		views[fmt.Sprintf("recovered on %d", procs)] = look(rec)
		rec.Close()
	}
	for _, w := range leader.Workers() {
		if err := leader.Deregister(w.WorkerID); err != nil {
			t.Fatal(err)
		}
	}
	want := look(leader)
	if len(want.drain) == 0 {
		t.Fatal("nothing left to drain at the cut")
	}
	for _, st := range want.done {
		if st.State != api.JobCompleted || st.Completed != st.Tasks {
			t.Fatalf("leader's job %s after the drain: %+v", st.Name, st)
		}
	}
	for name, got := range views {
		for _, f := range []struct {
			what      string
			got, want any
		}{
			{"jobs", got.jobs, want.jobs},
			{"tenants", got.tenants, want.tenants},
			{"slot telemetry", got.slots, want.slots},
			{"drain order", got.drain, want.drain},
			{"jobs after the drain", got.done, want.done},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: %s\n%s %+v\nleader %+v", name, f.what, name, f.got, f.want)
			}
		}
	}
}

// editLedger rewrites one job's packed ledger inside dir's manifest.
func editLedger(t *testing.T, dir, jobID string, edit func(ledger []byte) []byte) {
	t.Helper()
	found := false
	if err := service.EditManifestForTest(dir, func(id string, j *service.ManifestJobForTest) {
		if id == jobID && len(j.Ledger) > 0 {
			found, j.Ledger = true, edit(j.Ledger)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("job %s has no packed ledger in the manifest", jobID)
	}
}

// TestParallelRestoreErrors: one bad job among many fails the recovery
// naming that job, with the same error on one core as on four — the
// earliest bad job in the manifest, however the goroutines interleaved —
// and with no restore goroutine left behind.
func TestParallelRestoreErrors(t *testing.T) {
	clk := &policyClock{base: time.Unix(1_700_000_000, 0)}
	leader, dir := buildRestoreFleet(t, clk)
	leader.CrashForTest()
	id := func(tag string) string { return fleetJobID(t, leader, tag) }

	const recSize = 21 // op u8, task u32, site u32, worker u32, ts u64; little-endian
	unknownTask := func(ledger []byte) []byte {
		binary.LittleEndian.PutUint32(ledger[1:], 1<<20) // the first event is a dispatch
		return ledger
	}
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    []string
	}{
		// "a" comes before "d" in the manifest, but "d" has the longest ledger
		// of all and restore starts with it; "a" must still be the one
		// reported.
		{"two corrupt ledgers", func(t *testing.T, dir string) {
			editLedger(t, dir, id("d"), unknownTask)
			editLedger(t, dir, id("a"), unknownTask)
		}, []string{"snapshot job " + id("a") + " (combined.2)", "ledger event 0/", "dispatch of unknown task"}},
		{"missing workload file", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, workloadFileOf(id("h")))); err != nil {
				t.Fatal(err)
			}
		}, []string{"snapshot job " + id("h") + " (combined.2)", "workload file", "no such file"}},
		// A running job's ledger that finishes its last task: the checkpoint
		// contradicts itself, and completing a job is not something a
		// concurrent restore may do.
		{"ledger completes a running job", func(t *testing.T, dir string) {
			editLedger(t, dir, id("z"), func(ledger []byte) []byte {
				for _, op := range []byte{0, 1} { // dispatch, success: task 2 at slot (0,0)
					rec := make([]byte, recSize)
					rec[0] = op
					binary.LittleEndian.PutUint32(rec[1:], 2)
					ledger = append(ledger, rec...)
				}
				return ledger
			})
		}, []string{"snapshot job " + id("z") + " (workqueue)", "completes a job the checkpoint lists as running"}},
		// What a fold does not take on trust (core.BulkReplayer). "a" and "h"
		// fold; a re-asked replay would have refused the same ledgers at the
		// scheduler's first differing decision.
		{"draw count no ledger this long could reach", func(t *testing.T, dir string) {
			editDraws(t, dir, id("h"), func(uint64) uint64 { return 1 << 60 })
			editDraws(t, dir, id("a"), func(uint64) uint64 { return 1 << 60 })
		}, []string{"snapshot job " + id("a") + " (combined.2)", "ledger of ", "random draws recorded for 26 assignments"}},
		{"ledger dispatches a task that is not pending", func(t *testing.T, dir string) {
			editLedger(t, dir, id("h"), func(ledger []byte) []byte {
				again := append([]byte{}, ledger[:recSize]...) // the first dispatch once more,
				binary.LittleEndian.PutUint32(again[9:], 3)    // at a slot that is free
				return append(ledger, again...)
			})
		}, []string{"snapshot job " + id("h") + " (combined.2)", "ledger event ", "is not pending"}},
		{"ledger dispatches at a site the grid does not have", func(t *testing.T, dir string) {
			editLedger(t, dir, id("a"), func(ledger []byte) []byte {
				binary.LittleEndian.PutUint32(ledger[5:], 7)
				return ledger
			})
		}, []string{"snapshot job " + id("a") + " (combined.2)", "ledger event 0/", "outside the configured pool"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := copyDirForTest(t, dir)
			tc.corrupt(t, bad)
			var errs []string
			for _, procs := range []int{1, 4} {
				s, err := recoverAt(copyDirForTest(t, bad), clk, procs)
				if err == nil {
					s.Close()
					t.Fatalf("recovery on %d cores accepted the data dir", procs)
				}
				for _, want := range tc.want {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("recovery on %d cores: %v\nwant it to mention %q", procs, err, want)
					}
				}
				// The temp dir's name is in a file error; the rest must match.
				errs = append(errs, err.Error()[:strings.Index(err.Error()+"/", "/")])
			}
			if errs[0] != errs[1] {
				t.Errorf("one core:   %s\nfour cores: %s", errs[0], errs[1])
			}
			// New returned, so restore's goroutines have all finished their
			// work; the last may still be on its way out of wg.Done. (A bare
			// goroutine count would also see the runtime's own.)
			stacks := make([]byte, 1<<20)
			for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
				stacks = stacks[:runtime.Stack(stacks[:cap(stacks)], true)]
				if !bytes.Contains(stacks, []byte("restoreRunning")) {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("a restore goroutine outlived the failed recovery:\n%s", stacks)
					break
				}
			}
		})
	}
}
