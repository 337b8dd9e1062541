package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"gridsched/internal/faultinject"
	"gridsched/internal/journal"
	"gridsched/internal/metrics"
	"gridsched/internal/replicate"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
	"gridsched/internal/testkit"
	"gridsched/internal/workload"
)

// TestStandbyCheckpointsItself streams forty checkpoint intervals to a
// standby that is caught up after every pull+report pair — a healthy one,
// which therefore never sees a catch-up snapshot — and requires what only
// its own checkpoints can give it: a manifest near the leader's position, a
// journal no longer than one interval, a data dir of the leader's shape,
// and a promotion that replays the checkpointed ledger plus at most one
// interval, then dispatches what a recovered leader would.
func TestStandbyCheckpointsItself(t *testing.T) {
	const every, pairs = 64, 20 * 64 // 2 records a pair: 40 intervals
	ldir, fdir := t.TempDir(), t.TempDir()
	leader, err := service.New(durableConfig(ldir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	srv := httptest.NewServer(leader.Handler())
	t.Cleanup(srv.Close)
	fl := startFollowerIn(t, fdir, srv.URL)

	jobID, err := leader.SubmitJob(api.SubmitJobRequest{Name: "long", Algorithm: "combined.2", Workload: syntheticWorkload(pairs+200, 3), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, leader, 0)
	caughtUp := func() {
		for deadline := time.Now().Add(10 * time.Second); fl.LastLSN() < leader.ReplicationLastLSN(); time.Sleep(50 * time.Microsecond) {
			if err := fl.Halted(); err != nil || time.Now().After(deadline) {
				t.Fatalf("standby at lsn %d, leader at %d (halted: %v)", fl.LastLSN(), leader.ReplicationLastLSN(), err)
			}
		}
	}
	for i := 0; i < pairs; i++ {
		a := pull(t, leader, reg.WorkerID)
		if a == nil {
			t.Fatalf("pair %d: worker starved", i)
		}
		if _, err := leader.Report(a.ID, reg.WorkerID, api.OutcomeSuccess); err != nil {
			t.Fatal(err)
		}
		caughtUp()
	}
	// One lease stays in flight across the failover: both sides expire it.
	if a := pull(t, leader, reg.WorkerID); a == nil {
		t.Fatal("worker starved")
	}
	caughtUp()
	leaderLSN := leader.ReplicationLastLSN()
	leader.CrashForTest()
	fl.Close() // the stream's goroutine, and any checkpoint on it, has finished

	if got := fl.ReplicationCounters().SnapshotsApplied.Load(); got != 0 {
		t.Fatalf("the standby was sent %d catch-up snapshots: it was not caught up throughout", got)
	}
	want := []string{"snapshot.json", "wal.log", workloadFileOf(jobID)}
	if got := dirNames(t, fdir); !reflect.DeepEqual(got, want) {
		t.Fatalf("standby data dir holds %v, want %v", got, want)
	}
	at, jobs := manifestJobs(t, fdir)
	if at+every < leaderLSN || at > leaderLSN {
		t.Fatalf("standby's own checkpoint is at lsn %d, leader at %d: more than %d behind", at, leaderLSN, every)
	}
	if jobs[jobID].Draws != nil {
		t.Fatal("a standby has no scheduler, yet its manifest records draws")
	}
	ledger := jobs[jobID].Ledger
	const ledgerRecSize = 21
	tail, err := journal.ReadLog(filepath.Join(fdir, "wal.log"), 0, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if tail.Records > every {
		t.Fatalf("standby's wal.log holds %d records, more than one checkpoint interval (%d)", tail.Records, every)
	}

	ref, err := service.New(durableConfig(copyDirForTest(t, ldir)))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	promoted, err := fl.Promote()
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	defer promoted.Close()
	c := promoted.Counters()
	if got, bound := c.ReplayRecords.Load(), int64(len(ledger)/ledgerRecSize+every)+c.RecoveredExpired.Load(); got > bound || c.RecoveredExpired.Load() != 1 {
		t.Fatalf("promotion replayed %d records (%d expiries); want at most the %d-event ledger + %d + the one lease in flight",
			got, c.RecoveredExpired.Load(), len(ledger)/ledgerRecSize, every)
	}
	if got, want := pullSequence(t, promoted, -1), pullSequence(t, ref, -1); !reflect.DeepEqual(got, want) || len(got) != 200 {
		t.Fatalf("promoted standby dispatched\n%v\nthe leader recovered from its own dir\n%v", got, want)
	}
}

// TestStandbyKeepsUpAcrossCheckpoints: a standby attached before the first
// submit, and caught up after every request, is never sent the catch-up
// document, wherever inside a multi-record append the leader's checkpoint
// falls due. A worker streams k-grant lease frames and reports each as one
// k-item batch; SnapshotEvery puts the first checkpoint's due record at
// every position of a lease frame and of a report batch. The leader rotates
// inside the request that appended the due record, before its streamer can
// have forwarded it: on one core the streamer runs only after the rotation,
// and must still be served the interval's last records as frames.
func TestStandbyKeepsUpAcrossCheckpoints(t *testing.T) {
	const k, rounds = 4, 16
	// Polled tightly, as TestStandbyCheckpointsItself does: the leader is not
	// given idle time in which its streamer could catch up by luck.
	caughtUp := func(t *testing.T, fl *service.Follower, leader *service.Service) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); fl.LastLSN() < leader.ReplicationLastLSN(); time.Sleep(50 * time.Microsecond) {
			if err := fl.Halted(); err != nil || time.Now().After(deadline) {
				t.Fatalf("standby at lsn %d, leader at %d (halted: %v)", fl.LastLSN(), leader.ReplicationLastLSN(), err)
			}
		}
	}
	for every := k + 1; every <= 3*k; every++ {
		// The submit is record 1, so the checkpoint falls due n records after
		// it: at the first lease frame's last grant, in the first report
		// batch, or in the second lease frame.
		n := every - 1
		kind := "lease frame, grant"
		if (n-1)/k == 1 {
			kind = "report batch, item"
		}
		t.Run(fmt.Sprintf("%s %d of %d", kind, (n-1)%k+1, k), func(t *testing.T) {
			cfg := durableConfig(t.TempDir())
			cfg.SnapshotEvery = every
			leader, err := service.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(leader.Close)
			srv := httptest.NewServer(leader.Handler())
			t.Cleanup(srv.Close)
			fl := startFollower(t, srv.URL)

			if _, err := leader.SubmitJob(api.SubmitJobRequest{Name: "frames", Algorithm: "combined.2", Workload: syntheticWorkload(4*k*rounds, 3), Seed: 7}); err != nil {
				t.Fatal(err)
			}
			caughtUp(t, fl, leader)
			reg := register(t, leader, 0)
			ls, err := testkit.WireCodec(t, client.New(srv.URL, nil)).StreamLeases(context.Background(), reg.WorkerID, k)
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			for r := 0; r < rounds; r++ {
				var items []api.ReportItem
				for len(items) < k {
					lb, err := ls.Next()
					if err != nil {
						t.Fatalf("round %d: lease stream: %v", r, err)
					}
					for _, a := range lb.Assignments {
						items = append(items, api.ReportItem{AssignmentID: a.ID, Outcome: api.OutcomeSuccess})
					}
				}
				caughtUp(t, fl, leader)
				if _, err := leader.ReportBatch(reg.WorkerID, items); err != nil {
					t.Fatal(err)
				}
				caughtUp(t, fl, leader)
			}
			if leader.Counters().Snapshots.Load() < 2 {
				t.Fatalf("the leader checkpointed %d times over %d records", leader.Counters().Snapshots.Load(), leader.ReplicationLastLSN())
			}
			if got := fl.ReplicationCounters().SnapshotsApplied.Load(); got != 0 {
				t.Fatalf("the standby was sent %d catch-up snapshots: it was not caught up throughout", got)
			}
		})
	}
}

// TestStandbyPartitionIdentity: a standby checks whose data it holds where
// a leader does, and whose it is being sent — while its leader is alive,
// not inside Promote — whether the leader sends its checkpoint or, before
// its first one, its submit records.
func TestStandbyPartitionIdentity(t *testing.T) {
	// leaderOf serves partition 1 of 2 over dir, one job submitted.
	leaderOf := func(t *testing.T, dir string, checkpoint bool) string {
		leader, err := service.New(partitionedConfig(dir, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leader.Close)
		if _, err := leader.SubmitJob(api.SubmitJobRequest{Name: "theirs", Algorithm: "workqueue", Workload: smallWorkload(2)}); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := leader.SnapshotForTest(); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(leader.Handler())
		t.Cleanup(srv.Close)
		return srv.URL
	}

	t.Run("another partition's data dir", func(t *testing.T) {
		dir := t.TempDir()
		url := leaderOf(t, dir, true)
		fl, err := service.NewFollower(partitionedConfig(copyDirForTest(t, dir), 0, 2), service.FollowerConfig{Leader: url})
		if err == nil {
			fl.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "migration") {
			t.Fatalf("standby 0 of 2 over partition 1's data dir: err = %v, want the migration refusal", err)
		}
	})
	for _, tc := range []struct {
		name       string
		checkpoint bool // the leader sends its checkpoint, else its submit record
	}{
		{"another partition's leader", true},
		{"another partition's leader, before its first checkpoint", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url := leaderOf(t, t.TempDir(), tc.checkpoint)
			fdir := t.TempDir()
			fl, err := service.NewFollower(partitionedConfig(fdir, 0, 2), service.FollowerConfig{Leader: url})
			if err != nil {
				t.Fatal(err)
			}
			defer fl.Close()
			for deadline := time.Now().Add(10 * time.Second); fl.Halted() == nil; time.Sleep(2 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("standby 0 of 2 at lsn %d has not halted on partition 1's stream", fl.LastLSN())
				}
			}
			if msg := fl.Halted().Error(); !strings.Contains(msg, replicate.ErrDiverged.Error()) || !strings.Contains(msg, "partition 1 of 2") {
				t.Fatalf("halt does not name the divergence and the partition: %v", fl.Halted())
			}
			if !tc.checkpoint {
				return
			}
			if got := dirNames(t, fdir); !reflect.DeepEqual(got, []string{"wal.log"}) || fileSize(t, filepath.Join(fdir, "wal.log")) != 8 {
				t.Fatalf("the refused snapshot touched the data dir: %v", got)
			}
		})
	}
}

// testStandbyCheckpointCrash is TestCheckpointCrashOrdering's standby leg:
// the same two-job history streamed to a standby whose second checkpoint of
// its own — the one that retires A's workload file and stores B's — dies at
// step. What it leaves must pass the leader's on-disk check, and a standby
// restarted over it must resume the stream, mirror the leader, keep its dir
// clean and promote into the uninterrupted dispatch order.
func testStandbyCheckpointCrash(t *testing.T, step string, onDisk func(t *testing.T, dir string), refSeq []workload.TaskID) {
	const every, prefix = 45, 14 // records 1..90: checkpoints at 45 (A running) and 90 (the last one)
	cfg := durableConfig(t.TempDir())
	cfg.SnapshotEvery = 1 << 30
	leader, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	srv := httptest.NewServer(leader.Handler())
	t.Cleanup(srv.Close)

	fdir := t.TempDir()
	fcfg := durableConfig(fdir)
	fcfg.SnapshotEvery = every
	start := func() *service.Follower {
		fl, err := service.NewFollower(fcfg, service.FollowerConfig{Leader: srv.URL})
		if err != nil {
			t.Fatalf("standby over the data dir: %v", err)
		}
		t.Cleanup(fl.Close)
		return fl
	}
	fl := start()
	var steps faultinject.Steps
	checkpoints := 0
	fl.SetCheckpointStepHookForTest(func(s string) error {
		if s == service.StepWorkloadsSaved {
			if checkpoints++; checkpoints == 2 {
				steps.KillAt(step)
			}
		}
		return steps.Reached(s)
	})
	gotSeq := runCheckpointScript(t, leader, nil, prefix)
	waitCaughtUp(t, fl, leader)
	fl.CrashForTest()
	if seen := steps.Seen(); len(seen) < 4 || seen[len(seen)-1] != step {
		t.Fatalf("the standby's second checkpoint did not die at %s: %v", step, seen)
	}
	onDisk(t, fdir)
	if err := os.WriteFile(filepath.Join(fdir, workloadFileOf(jobB)+".tmp123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	fl = start()
	gotSeq = append(gotSeq, pullSequence(t, leader, 20)...)
	assertFollowerMirrors(t, fl, leader)
	if fl.ReplicationCounters().FramesApplied.Load() == 0 {
		t.Fatal("restarted standby applied nothing — stream did not resume")
	}
	leader.CrashForTest()
	promoted, err := fl.Promote()
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	defer promoted.Close()
	want := []string{"snapshot.json", "wal.log", workloadFileOf(jobB)}
	if got := dirNames(t, fdir); !reflect.DeepEqual(got, want) {
		t.Fatalf("standby data dir after restart and promotion holds %v, want %v", got, want)
	}
	gotSeq = append(gotSeq, pullSequence(t, promoted, -1)...)
	if !reflect.DeepEqual(gotSeq, refSeq) {
		t.Fatalf("B dispatched\n%v\nacross the standby's kill at %s and the failover, uninterrupted\n%v", gotSeq, step, refSeq)
	}
}

// routeRequest builds a request for a route-table pattern, its wildcards
// filled from ids.
func routeRequest(pattern string, ids map[string]string, binary bool) *http.Request {
	method, path, _ := strings.Cut(pattern, " ")
	for name, id := range ids {
		path = strings.ReplaceAll(path, "{"+name+"}", id)
	}
	req := httptest.NewRequest(method, path, strings.NewReader("{}"))
	if binary {
		req.Header.Set("Content-Type", api.ContentTypeBinary)
		req.Header.Set("Accept", api.ContentTypeBinary)
	}
	return req
}

// TestStandbyRouteTable walks the one route table both roles are mounted
// from. On a standby every leader-only route answers 421 with the leader's
// address, in both codecs; every read route answers what the leader answers
// for the same replicated state, modulo the liveness fields a replica
// cannot know. A read route this test has no comparison for fails it, so a
// route added later cannot be forgotten on one role; and the table is what
// docs/PROTOCOL.md's "Endpoints" says, standby column included.
func TestStandbyRouteTable(t *testing.T) {
	leader, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	srv := httptest.NewServer(leader.Handler())
	t.Cleanup(srv.Close)
	fl := startFollower(t, srv.URL)
	done, err := leader.SubmitJob(api.SubmitJobRequest{Name: "a", Algorithm: "rest", Workload: syntheticWorkload(6, 2), Seed: 3, Tenant: "ta"})
	if err != nil {
		t.Fatal(err)
	}
	pullSequence(t, leader, -1)
	if _, err := leader.SubmitJob(api.SubmitJobRequest{Name: "b", Algorithm: "combined.2", Workload: syntheticWorkload(9, 2), Seed: 5, Tenant: "tb", Weight: 3}); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, leader, 4)
	if _, err := leader.SetTenantQuota("tb", 2); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, fl, leader)
	ids := map[string]string{"id": done, "tenant": "tb"}

	// blank names, per read route, the JSON fields that are liveness (or the
	// scheduler's own) and so differ by role; nil compares the bodies whole.
	// The two routes whose body is the role itself are checked on their own.
	blank := map[string][]string{
		"GET /v1/jobs":       {"transfers"},
		"GET /v1/jobs/{id}":  {"transfers"},
		"GET /v1/tenants":    {"inFlight", "shareAchieved", "throttles"},
		"GET /v1/partitions": nil,
		"GET /healthz":       {"workers"},
	}
	serve := func(h http.Handler, req *http.Request) *http.Response {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr.Result()
	}
	var scrub func(v any, fields []string) any
	scrub = func(v any, fields []string) any {
		switch v := v.(type) {
		case []any:
			for i := range v {
				v[i] = scrub(v[i], fields)
			}
		case map[string]any:
			for _, f := range fields {
				delete(v, f)
			}
		}
		return v
	}
	normalized := func(resp *http.Response, fields []string) string {
		var v any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("body: %v", err)
		}
		out, _ := json.Marshal(scrub(v, fields))
		return string(out)
	}
	for _, rt := range service.RoutesForTest() {
		if !rt.Read {
			if method, _, _ := strings.Cut(rt.Pattern, " "); method == http.MethodGet &&
				!strings.Contains(rt.Pattern, "/v1/workers") && rt.Pattern != "GET /v1/replication/stream" {
				t.Errorf("%s is a GET a standby does not serve, and not one of the three that need a live leader", rt.Pattern)
			}
			for _, binary := range []bool{false, true} {
				resp := serve(fl.Handler(), routeRequest(rt.Pattern, ids, binary))
				var body api.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
					t.Errorf("%s (binary=%v) on a standby: body is no ErrorResponse (%v)", rt.Pattern, binary, err)
				}
				if resp.StatusCode != http.StatusMisdirectedRequest || resp.Header.Get(api.LeaderHeader) != srv.URL {
					t.Errorf("%s (binary=%v) on a standby: %s, leader hint %q; want 421 and %q",
						rt.Pattern, binary, resp.Status, resp.Header.Get(api.LeaderHeader), srv.URL)
				}
			}
			continue
		}
		if method, _, _ := strings.Cut(rt.Pattern, " "); method != http.MethodGet {
			t.Errorf("%s is served by a standby, which must change nothing", rt.Pattern)
		}
		got := serve(fl.Handler(), routeRequest(rt.Pattern, ids, false))
		want := serve(leader.Handler(), routeRequest(rt.Pattern, ids, false))
		if got.StatusCode != http.StatusOK || want.StatusCode != http.StatusOK {
			t.Errorf("%s: standby %s, leader %s", rt.Pattern, got.Status, want.Status)
			continue
		}
		switch fields, ok := blank[rt.Pattern]; {
		case ok:
			if g, w := normalized(got, fields), normalized(want, fields); g != w {
				t.Errorf("%s:\nstandby %s\nleader  %s", rt.Pattern, g, w)
			}
		case rt.Pattern == "GET /readyz":
			var rd api.Readiness
			if err := json.NewDecoder(got.Body).Decode(&rd); err != nil || rd.Role != api.RoleFollower ||
				rd.LastLSN != leader.ReplicationLastLSN() || rd.Leader != srv.URL || got.Header.Get(api.LeaderHeader) != srv.URL {
				t.Errorf("standby /readyz: %+v (err=%v)", rd, err)
			}
		case rt.Pattern == "GET /metrics":
			body, _ := io.ReadAll(got.Body)
			if _, err := metrics.Read(bytes.NewReader(body)); err != nil {
				t.Errorf("standby /metrics does not read back: %v", err)
			}
		default:
			t.Errorf("%s is a read route with no leader/standby comparison in this test", rt.Pattern)
		}
	}
	// What the table does not know is the leader's to refuse.
	if resp := serve(fl.Handler(), httptest.NewRequest(http.MethodPost, "/v1/nowhere", nil)); resp.StatusCode != http.StatusMisdirectedRequest {
		t.Errorf("unknown route on a standby: %s, want 421", resp.Status)
	}

	t.Run("docs", func(t *testing.T) {
		doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "PROTOCOL.md"))
		if err != nil {
			t.Fatal(err)
		}
		// | `METHOD /path[?query]` | request | response | standby |
		row := regexp.MustCompile("(?m)^\\| `([A-Z]+ /[^`?]*)[^`]*` \\|[^|]*\\|[^|]*\\| ([^|]*) \\|$")
		documented := make(map[string]string)
		for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
			documented[m[1]] = m[2]
		}
		// The one route that is the daemon's, not the service's.
		if documented["POST /v1/replication/promote"] == "" {
			t.Error("docs/PROTOCOL.md lost POST /v1/replication/promote")
		}
		delete(documented, "POST /v1/replication/promote")
		for _, rt := range service.RoutesForTest() {
			want := "421 → leader"
			if rt.Read {
				want = "serves"
			}
			if got, ok := documented[rt.Pattern]; !ok || got != want {
				t.Errorf("%s: docs/PROTOCOL.md's standby column says %q, the route table %q", rt.Pattern, got, want)
			}
			delete(documented, rt.Pattern)
		}
		for pattern := range documented {
			t.Errorf("docs/PROTOCOL.md lists %s, which the route table does not have", pattern)
		}
	})
}
