package service_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gridsched/internal/faultinject"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/workload"
)

// dirNames lists dir's entries, sorted, failing on anything that is not a
// regular file: the data dir is flat.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			t.Fatalf("data dir holds %q, which is not a regular file", ent.Name())
		}
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	return names
}

// manifestJobs reads dir's manifest: the journal position it covers and its
// jobs by id.
func manifestJobs(t *testing.T, dir string) (uint64, map[string]*service.ManifestJobForTest) {
	t.Helper()
	lastLSN, jobs, err := service.ManifestForTest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return lastLSN, jobs
}

// The two-job history the crash-ordering tests run: job A
// runs to completion, then job B is submitted and dispatches prefix tasks
// (all of them when prefix < 0). Job, worker, and assignment ids come from
// one sequence, so the same script mints the same ids on every service:
// A is jobA, B is jobB.
const (
	aTasks, bTasks, bPrefix = 30, 80, 30
	jobA, jobB              = "j1", "j33" // 1, then a worker and 30 assignments later
)

// runCheckpointScript applies the history to s, calling afterA once A is
// submitted, and returns B's dispatch order so far.
func runCheckpointScript(t *testing.T, s *service.Service, afterA func(), prefix int) []workload.TaskID {
	t.Helper()
	if id, err := s.SubmitJob(api.SubmitJobRequest{Name: "A", Algorithm: "rest", Workload: syntheticWorkload(aTasks, 3), Seed: 5}); err != nil || id != jobA {
		t.Fatalf("submit A: id %q, err %v", id, err)
	}
	if afterA != nil {
		afterA()
	}
	if got := pullSequence(t, s, -1); len(got) != aTasks {
		t.Fatalf("drained %d of A's %d tasks", len(got), aTasks)
	}
	if id, err := s.SubmitJob(api.SubmitJobRequest{Name: "B", Algorithm: "combined.2", Workload: syntheticWorkload(bTasks, 4), Seed: 99}); err != nil || id != jobB {
		t.Fatalf("submit B: id %q, err %v", id, err)
	}
	return pullSequence(t, s, prefix)
}

func workloadFileOf(jobID string) string { return "workload-" + jobID + ".bin" }

// TestCheckpointCrashOrdering kills a checkpoint at each of its step
// boundaries and recovers from what the finished steps left on disk. Every
// boundary must recover the same state — A completed, B dispatching the
// rest of its tasks in exactly the uninterrupted order — and a data dir
// holding nothing the final manifest does not account for.
func TestCheckpointCrashOrdering(t *testing.T) {
	ref := newService(t, service.Config{})
	refSeq := runCheckpointScript(t, ref, nil, -1)
	if len(refSeq) != bTasks {
		t.Fatalf("reference dispatched %d of %d", len(refSeq), bTasks)
	}

	const walHeader = 8 // a freshly rotated log is its magic and nothing else
	for _, tc := range []struct {
		step string
		// onDisk checks what the killed checkpoint left behind.
		onDisk func(t *testing.T, dir string)
	}{
		{service.StepWorkloadsSaved, func(t *testing.T, dir string) {
			// B's workload file is durable; the manifest is still the old
			// one, which knows A as running and nothing of B.
			_, jobs := manifestJobs(t, dir)
			if jobs[jobB] != nil || jobs[jobA] == nil || jobs[jobA].State != api.JobRunning {
				t.Fatalf("manifest moved before the kill: %v", jobs)
			}
			if fileSize(t, filepath.Join(dir, workloadFileOf(jobB))) == 0 {
				t.Fatal("B's workload file missing")
			}
		}},
		{service.StepManifestRenamed, func(t *testing.T, dir string) {
			_, jobs := manifestJobs(t, dir)
			if jobs[jobB] == nil || jobs[jobA] == nil || jobs[jobA].State != api.JobCompleted {
				t.Fatalf("manifest not replaced before the kill: %v", jobs)
			}
			if fileSize(t, filepath.Join(dir, "wal.log")) <= walHeader {
				t.Fatal("journal rotated before the kill")
			}
		}},
		{service.StepJournalRotated, func(t *testing.T, dir string) {
			if got := fileSize(t, filepath.Join(dir, "wal.log")); got != walHeader {
				t.Fatalf("journal holds %d bytes after rotation", got)
			}
			// A completed, so no manifest needs its workload any more —
			// but the kill landed before the file was removed.
			if fileSize(t, filepath.Join(dir, workloadFileOf(jobA))) == 0 {
				t.Fatal("A's workload file already gone")
			}
		}},
	} {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.SnapshotEvery = 1 << 30 // only explicit checkpoints
			a, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A checkpoint while A runs gives A a workload file for the
			// killed checkpoint to retire.
			gotSeq := runCheckpointScript(t, a, func() {
				if err := a.SnapshotForTest(); err != nil {
					t.Fatal(err)
				}
			}, bPrefix)

			var steps faultinject.Steps
			a.SetCheckpointStepHookForTest(steps.Reached)
			steps.KillAt(tc.step)
			if err := a.SnapshotForTest(); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("checkpoint survived the kill at %s: %v", tc.step, err)
			}
			if seen := steps.Seen(); seen[len(seen)-1] != tc.step {
				t.Fatalf("checkpoint went on past %s: %v", tc.step, seen)
			}
			a.CrashForTest()
			tc.onDisk(t, dir)
			// A temp file, as a kill inside an atomic write would leave.
			if err := os.WriteFile(filepath.Join(dir, workloadFileOf(jobB)+".tmp123"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}

			b, err := service.New(cfg)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer b.Close()
			if st, err := b.JobStatus(jobA); err != nil || st.State != api.JobCompleted || st.Completed != aTasks {
				t.Fatalf("job A after recovery: %+v, %v", st, err)
			}
			// Recovery compacts, so the dir is already in its final shape:
			// B is the one running job, and only it has a workload file.
			want := []string{"snapshot.json", "wal.log", workloadFileOf(jobB)}
			if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("data dir after recovery holds %v, want %v", got, want)
			}
			gotSeq = append(gotSeq, pullSequence(t, b, -1)...)
			if !reflect.DeepEqual(gotSeq, refSeq) {
				t.Fatalf("B dispatched\n%v\nacross the kill at %s, uninterrupted\n%v", gotSeq, tc.step, refSeq)
			}
		})
		t.Run("standby/"+tc.step, func(t *testing.T) {
			testStandbyCheckpointCrash(t, tc.step, tc.onDisk, refSeq)
		})
	}
}
