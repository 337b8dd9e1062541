package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/journal"
	"gridsched/internal/replicate"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
)

// testdata/legacy-pr15 is a data dir the PR 15 gridschedd wrote — the last
// binary to journal JSON records — and what that same binary made of it:
// recovered as a leader, mirrored as a standby. generate.py there says how.
// These tests go with the JSON reader when it is removed.
const legacyFixture = "testdata/legacy-pr15"

// legacyConfig is the configuration the fixture's daemons ran with.
func legacyConfig(dir string) service.Config {
	return service.Config{
		Topology:      service.Topology{Sites: 2, WorkersPerSite: 2, CapacityFiles: 64},
		NewScheduler:  gridsched.SchedulerFactory(),
		Fsync:         journal.SyncBatch,
		SnapshotEvery: 1000000,
		DataDir:       dir,
	}
}

func legacyExpect(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(legacyFixture, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walOps reads the log in dir and returns each record's op, failing the
// test unless every record is in the wanted format.
func walOps(t *testing.T, dir string, wantLegacy bool) (ops []string, last uint64) {
	t.Helper()
	info, err := journal.ReadLog(filepath.Join(dir, "wal.log"), 0, func(lsn uint64, p []byte) error {
		if legacy := p[0] == '{'; legacy != wantLegacy {
			return fmt.Errorf("record %d: legacy=%v, want %v: %q", lsn, legacy, wantLegacy, p[:min(len(p), 40)])
		}
		op, err := service.RecordOpForTest(p)
		ops = append(ops, op)
		return err
	})
	if err != nil || info.Torn {
		t.Fatalf("reading %s/wal.log: %+v, %v", dir, info, err)
	}
	return ops, info.LastLSN
}

func httpDo(t *testing.T, h http.Handler, method, path string, body any) []byte {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, rd))
	if rr.Code != http.StatusOK && rr.Code != http.StatusCreated {
		t.Fatalf("%s %s: %d %s", method, path, rr.Code, rr.Body)
	}
	return rr.Body.Bytes()
}

// TestLegacyDataDirRecovers: the fixture recovers under this binary, on one
// core and on four, to byte-identical /v1/jobs and /v1/tenants answers and
// the same drain order the old binary produced — and what this binary then
// journals on top is binary, the JSON tail gone with the first compaction.
func TestLegacyDataDirRecovers(t *testing.T) {
	ops, _ := walOps(t, filepath.Join(legacyFixture, "data"), true)
	for _, op := range []string{"submit", "dispatch", "report", "expire", "quota", "delete"} {
		if !slices.Contains(ops, op) {
			t.Fatalf("fixture log holds no %s record: %v", op, ops)
		}
	}
	var wantOrder []string
	if err := json.Unmarshal(legacyExpect(t, "expect-drain.json"), &wantOrder); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := copyDirForTest(t, filepath.Join(legacyFixture, "data"))
			s, err := service.New(legacyConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// The old binary recorded no draw counts: nothing here can fold.
			if c := s.Counters(); c.ReplayFolded.Load() != 0 || c.ReplayReasked.Load() == 0 {
				t.Errorf("recovery folded %d events and re-asked %d", c.ReplayFolded.Load(), c.ReplayReasked.Load())
			}
			h := s.Handler()
			if got, want := httpDo(t, h, "GET", "/v1/jobs", nil), legacyExpect(t, "expect-jobs.json"); !bytes.Equal(got, want) {
				t.Errorf("/v1/jobs after recovery:\n%s\nthe old binary answered:\n%s", got, want)
			}
			if got, want := httpDo(t, h, "GET", "/v1/tenants", nil), legacyExpect(t, "expect-tenants.json"); !bytes.Equal(got, want) {
				t.Errorf("/v1/tenants after recovery:\n%s\nthe old binary answered:\n%s", got, want)
			}
			// Recovery compacted: nothing of the old log is left.
			if ops, _ := walOps(t, dir, false); len(ops) != 0 {
				t.Fatalf("log after recovery's compaction still holds %v", ops)
			}

			var reg api.RegisterResponse
			site := 0
			if err := json.Unmarshal(httpDo(t, h, "POST", "/v1/workers", api.RegisterRequest{Site: &site, Tags: []string{"gpu"}}), &reg); err != nil {
				t.Fatal(err)
			}
			var order []string
			for {
				var p api.PullResponse
				if err := json.Unmarshal(httpDo(t, h, "POST", "/v1/workers/"+reg.WorkerID+"/pull", api.PullRequest{}), &p); err != nil {
					t.Fatal(err)
				}
				if p.Status != api.StatusAssigned {
					break
				}
				order = append(order, fmt.Sprintf("%s/%d", p.Assignment.JobID, p.Assignment.Task.ID))
				httpDo(t, h, "POST", "/v1/assignments/"+p.Assignment.ID+"/report",
					api.ReportRequest{WorkerID: reg.WorkerID, Outcome: api.OutcomeSuccess})
			}
			if !reflect.DeepEqual(order, wantOrder) {
				t.Errorf("drain order after recovery:\n%v\nthe old binary's:\n%v", order, wantOrder)
			}
			if ops, _ := walOps(t, dir, false); len(ops) != 2*len(order) {
				t.Fatalf("drain journaled %d records for %d tasks: %v", len(ops), len(order), ops)
			}
		})
	}
}

// TestStandbyAcceptsLegacyLeader is the upgrade order docs/REPLICATION.md
// prescribes — standby first — seen from the standby: a leader still on the
// old binary streams its checkpoint and JSON frames (here: the fixture's
// files behind the real replication source), this binary's standby applies
// them to the state the old standby showed, and promoting it recovers what
// the old leader's own recovery did.
func TestStandbyAcceptsLegacyLeader(t *testing.T) {
	dir := filepath.Join(legacyFixture, "data")
	_, last := walOps(t, dir, true)
	stop := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != replicate.StreamPath {
			http.NotFound(w, r)
			return
		}
		var from uint64
		if _, err := fmt.Sscan(r.URL.Query().Get("from"), &from); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		src := &replicate.Source{
			WALPath:   filepath.Join(dir, "wal.log"),
			Snapshot:  func(next uint64) (uint64, []byte, error) { return service.CheckpointDocumentForTest(dir, next) },
			LastLSN:   func() uint64 { return last },
			Notify:    func() <-chan struct{} { return nil }, // the old leader is done appending
			Rotations: func() uint64 { return 0 },
			Done:      stop,
		}
		w.WriteHeader(http.StatusOK)
		_ = src.Serve(r.Context(), w, from)
	}))
	defer srv.Close()
	defer close(stop)

	fl, err := service.NewFollower(legacyConfig(t.TempDir()), service.FollowerConfig{
		Leader: srv.URL, ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for deadline := time.Now().Add(10 * time.Second); fl.LastLSN() < last; time.Sleep(2 * time.Millisecond) {
		if err := fl.Halted(); err != nil {
			t.Fatalf("standby halted on the old leader's stream: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at lsn %d of %d", fl.LastLSN(), last)
		}
	}
	h := fl.Handler()
	if got, want := httpDo(t, h, "GET", "/v1/jobs", nil), legacyExpect(t, "expect-standby-jobs.json"); !bytes.Equal(got, want) {
		t.Errorf("standby /v1/jobs:\n%s\nthe old standby answered:\n%s", got, want)
	}
	if got, want := httpDo(t, h, "GET", "/v1/tenants", nil), legacyExpect(t, "expect-standby-tenants.json"); !bytes.Equal(got, want) {
		t.Errorf("standby /v1/tenants:\n%s\nthe old standby answered:\n%s", got, want)
	}

	s, err := fl.Promote()
	if err != nil {
		t.Fatalf("promoting over a JSON log: %v", err)
	}
	defer s.Close()
	if got, want := httpDo(t, s.Handler(), "GET", "/v1/jobs", nil), legacyExpect(t, "expect-jobs.json"); !bytes.Equal(got, want) {
		t.Errorf("promoted /v1/jobs:\n%s\nthe old leader recovered to:\n%s", got, want)
	}
}
