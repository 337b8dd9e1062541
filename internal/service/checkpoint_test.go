package service_test

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gridsched"
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

// manifestJobs reads snapshot.json generically: the top-level document and
// its jobs keyed by id.
func manifestJobs(t *testing.T, dir string) (map[string]any, map[string]map[string]any) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	jobs := make(map[string]map[string]any)
	for _, j := range doc["jobs"].([]any) {
		job := j.(map[string]any)
		jobs[job["id"].(string)] = job
	}
	return doc, jobs
}

// The two-job history the crash-ordering and legacy tests share: job A
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
	if id, err := s.SubmitByName("A", "rest", syntheticWorkload(aTasks, 3), 5, ""); err != nil || id != jobA {
		t.Fatalf("submit A: id %q, err %v", id, err)
	}
	if afterA != nil {
		afterA()
	}
	if got := pullSequence(t, s, -1); len(got) != aTasks {
		t.Fatalf("drained %d of A's %d tasks", len(got), aTasks)
	}
	if id, err := s.SubmitByName("B", "combined.2", syntheticWorkload(bTasks, 4), 99, ""); err != nil || id != jobB {
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
	ref := newService(t, service.Config{NewScheduler: gridsched.SchedulerFactory()})
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
			if jobs[jobB] != nil || jobs[jobA]["state"] != api.JobRunning {
				t.Fatalf("manifest moved before the kill: %v", jobs)
			}
			if fileSize(t, filepath.Join(dir, workloadFileOf(jobB))) == 0 {
				t.Fatal("B's workload file missing")
			}
		}},
		{service.StepManifestRenamed, func(t *testing.T, dir string) {
			_, jobs := manifestJobs(t, dir)
			if jobs[jobB] == nil || jobs[jobA]["state"] != api.JobCompleted {
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
	}
}

// TestLegacySnapshotLoadsAndIsRewritten: a version-1 snapshot.json — every
// running job's workload inline, ledgers as one JSON object per event —
// still recovers, bit-identically, and the first checkpoint afterwards
// rewrites it in the current layout.
func TestLegacySnapshotLoadsAndIsRewritten(t *testing.T) {
	ref := newService(t, service.Config{NewScheduler: gridsched.SchedulerFactory()})
	refSeq := runCheckpointScript(t, ref, nil, -1)

	dir := t.TempDir()
	cfg := durableConfig(dir)
	a, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotSeq := runCheckpointScript(t, a, nil, bPrefix)
	a.Close() // final checkpoint: everything is in the manifest, the log is empty

	// Rewrite the data dir the way a pre-PR-12 binary would have left it.
	doc, jobs := manifestJobs(t, dir)
	if doc["version"] != float64(2) {
		t.Fatalf("current manifest version %v, want 2", doc["version"])
	}
	doc["version"] = 1
	b := jobs[jobB]
	if _, inline := b["workload"]; inline {
		t.Fatal("current manifest carries an inline workload")
	}
	wlPath := filepath.Join(dir, workloadFileOf(jobB))
	wlData, err := os.ReadFile(wlPath)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := api.DecodeWorkload(wlData)
	if err != nil {
		t.Fatal(err)
	}
	b["workload"] = wl
	packed, err := base64.StdEncoding.DecodeString(b["ledger"].(string))
	if err != nil {
		t.Fatal(err)
	}
	const recSize = 21 // op u8, task u32, site u32, worker u32, ts u64; little-endian
	if len(packed) != 2*bPrefix*recSize {
		t.Fatalf("packed ledger is %d bytes, want %d dispatch+report records of %d", len(packed), 2*bPrefix, recSize)
	}
	var events []map[string]any
	for ; len(packed) > 0; packed = packed[recSize:] {
		events = append(events, map[string]any{
			"op": packed[0],
			"t":  binary.LittleEndian.Uint32(packed[1:]),
			"s":  binary.LittleEndian.Uint32(packed[5:]),
			"w":  binary.LittleEndian.Uint32(packed[9:]),
			"ms": binary.LittleEndian.Uint64(packed[13:]),
		})
	}
	b["ledger"] = events
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(wlPath); err != nil {
		t.Fatal(err)
	}

	r, err := service.New(cfg)
	if err != nil {
		t.Fatalf("recovery from a version-1 snapshot: %v", err)
	}
	defer r.Close()
	// Recovery's own compaction is "the next snapshot".
	doc, jobs = manifestJobs(t, dir)
	if doc["version"] != float64(2) {
		t.Fatalf("manifest still version %v after recovery", doc["version"])
	}
	if _, inline := jobs[jobB]["workload"]; inline {
		t.Fatal("rewritten manifest still carries the workload inline")
	}
	if _, isPacked := jobs[jobB]["ledger"].(string); !isPacked {
		t.Fatalf("rewritten ledger is a %T, want the packed string", jobs[jobB]["ledger"])
	}
	want := []string{"snapshot.json", "wal.log", workloadFileOf(jobB)}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("data dir after the rewrite holds %v, want %v", got, want)
	}
	gotSeq = append(gotSeq, pullSequence(t, r, -1)...)
	if !reflect.DeepEqual(gotSeq, refSeq) {
		t.Fatalf("B dispatched\n%v\nacross the legacy snapshot, uninterrupted\n%v", gotSeq, refSeq)
	}
}
