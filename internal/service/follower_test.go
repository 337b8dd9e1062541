package service_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gridsched"
	"gridsched/internal/replicate"
	"gridsched/internal/service"
	"gridsched/internal/service/api"
)

// startFollower spins up a hot standby replicating the leader at
// leaderURL into its own temp data dir.
func startFollower(t *testing.T, leaderURL string) *service.Follower {
	t.Helper()
	return startFollowerIn(t, t.TempDir(), leaderURL)
}

// startFollowerIn is startFollower over a data dir the test can inspect.
func startFollowerIn(t *testing.T, dir, leaderURL string) *service.Follower {
	t.Helper()
	fl, err := service.NewFollower(durableConfig(dir), service.FollowerConfig{
		Leader:       leaderURL,
		ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl
}

// waitCaughtUp blocks until the follower's local LSN reaches the
// leader's.
func waitCaughtUp(t *testing.T, fl *service.Follower, s *service.Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fl.LastLSN() < s.ReplicationLastLSN() {
		if err := fl.Halted(); err != nil {
			t.Fatalf("follower halted while catching up: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, leader at %d", fl.LastLSN(), s.ReplicationLastLSN())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJSON fetches one follower endpoint into out.
func getJSON(t *testing.T, h http.Handler, path string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	resp := rr.Result()
	if out != nil {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp
}

// normalizeForFollower blanks the live-only fields a read-only catalog
// cannot know: in-flight assignment state and the simulated transfer
// counters that live inside the scheduler.
func normalizeForFollower(sts []api.JobStatus) []api.JobStatus {
	out := make([]api.JobStatus, len(sts))
	for i, st := range sts {
		st.Transfers = 0
		out[i] = st
	}
	return out
}

func normalizeTenants(sts []api.TenantStatus) []api.TenantStatus {
	out := make([]api.TenantStatus, len(sts))
	for i, st := range sts {
		st.InFlight = 0
		st.ShareAchieved = 0
		st.Throttles = 0
		out[i] = st
	}
	return out
}

// TestFollowerMirrorsLeader drives a mixed workload on a leader — two
// tenants, a quota override, a completed job, a half-done job — and
// checks the standby's /v1/jobs and /v1/tenants converge to the leader's
// view, field by field.
func TestFollowerMirrorsLeader(t *testing.T) {
	s, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	fl := startFollower(t, srv.URL)

	// Job 1 (tenant A): driven to completion.
	done, err := s.SubmitByName("astro", "rest", syntheticWorkload(12, 3), 7, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := pullSequence(t, s, -1); len(got) != 12 {
		t.Fatalf("drained %d tasks", len(got))
	}
	// Job 2 (tenant B): half-done, still running.
	if _, err := s.SubmitJob(api.SubmitJobRequest{
		Name: "bio", Algorithm: "combined.2", Workload: syntheticWorkload(20, 3), Seed: 11, Tenant: "tb",
	}); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 5)
	if _, err := s.SetTenantQuota("tb", 3); err != nil {
		t.Fatal(err)
	}

	waitCaughtUp(t, fl, s)

	var gotJobs []api.JobStatus
	getJSON(t, fl.Handler(), "/v1/jobs", &gotJobs)
	wantJobs := normalizeForFollower(s.Jobs())
	gotJobs = normalizeForFollower(gotJobs)
	if len(gotJobs) != len(wantJobs) {
		t.Fatalf("follower sees %d jobs, leader %d", len(gotJobs), len(wantJobs))
	}
	for i := range wantJobs {
		if !reflect.DeepEqual(gotJobs[i], wantJobs[i]) {
			t.Errorf("job %d:\nfollower %+v\nleader   %+v", i, gotJobs[i], wantJobs[i])
		}
	}

	var gotTenants []api.TenantStatus
	getJSON(t, fl.Handler(), "/v1/tenants", &gotTenants)
	wantTenants := normalizeTenants(s.Tenants())
	gotTenants = normalizeTenants(gotTenants)
	if len(gotTenants) != len(wantTenants) {
		t.Fatalf("follower sees %d tenants, leader %d: %+v vs %+v",
			len(gotTenants), len(wantTenants), gotTenants, wantTenants)
	}
	for i := range wantTenants {
		if gotTenants[i] != wantTenants[i] {
			t.Errorf("tenant %d:\nfollower %+v\nleader   %+v", i, gotTenants[i], wantTenants[i])
		}
	}

	// Single-job view agrees too.
	var one api.JobStatus
	getJSON(t, fl.Handler(), "/v1/jobs/"+done, &one)
	if one.State != api.JobCompleted || one.Completed != 12 {
		t.Fatalf("completed job on follower: %+v", one)
	}
}

// TestFollowerReadyzAndRedirect pins the follower's HTTP contract: truthful
// readiness with role and lag, and 421 + leader hint for mutations.
func TestFollowerReadyzAndRedirect(t *testing.T) {
	s, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	fl := startFollower(t, srv.URL)

	if _, err := s.SubmitByName("j", "workqueue", syntheticWorkload(4, 2), 1, ""); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, fl, s)

	var rd api.Readiness
	getJSON(t, fl.Handler(), "/readyz", &rd)
	if rd.Role != api.RoleFollower || rd.Status != "ready" {
		t.Fatalf("readiness %+v", rd)
	}
	if rd.Leader != srv.URL {
		t.Fatalf("readiness leader %q, want %q", rd.Leader, srv.URL)
	}
	if rd.LastLSN == 0 || rd.LastLSN != s.ReplicationLastLSN() {
		t.Fatalf("readiness lsn %d, leader %d", rd.LastLSN, s.ReplicationLastLSN())
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
	rr := httptest.NewRecorder()
	fl.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusMisdirectedRequest {
		t.Fatalf("POST /v1/jobs on follower: %d, want 421", rr.Code)
	}
	if got := rr.Header().Get(api.LeaderHeader); got != srv.URL {
		t.Fatalf("leader hint %q, want %q", got, srv.URL)
	}
}

// TestFollowerSnapshotCatchUp connects the standby after the leader has
// already snapshotted and rotated its WAL away: the only complete source
// is the snapshot, which must be shipped — one self-contained message,
// assembled from the leader's manifest and workload files — and installed
// as the same files, in a data dir ordinary recovery accepts.
func TestFollowerSnapshotCatchUp(t *testing.T) {
	s, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	jobID, err := s.SubmitByName("pre", "rest", syntheticWorkload(10, 3), 3, "")
	if err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 4)
	if err := s.SnapshotForTest(); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 2) // post-rotation tail frames

	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	dir := t.TempDir()
	// A workload file no checkpoint refers to, as an interrupted earlier
	// catch-up would leave; the follower must not keep it.
	if err := os.WriteFile(filepath.Join(dir, workloadFileOf("j999")), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	fl := startFollowerIn(t, dir, srv.URL)
	waitCaughtUp(t, fl, s)

	if got := fl.ReplicationCounters().SnapshotsApplied.Load(); got == 0 {
		t.Fatal("follower caught up without applying the snapshot")
	}
	var gotJobs []api.JobStatus
	getJSON(t, fl.Handler(), "/v1/jobs", &gotJobs)
	wantJobs := normalizeForFollower(s.Jobs())
	gotJobs = normalizeForFollower(gotJobs)
	if len(gotJobs) != 1 || !reflect.DeepEqual(gotJobs[0], wantJobs[0]) {
		t.Fatalf("after snapshot catch-up:\nfollower %+v\nleader   %+v", gotJobs, wantJobs)
	}

	// On disk the follower holds what a leader holds: the manifest without
	// the workload, the workload in its own file, nothing else.
	want := []string{"snapshot.json", "wal.log", workloadFileOf(jobID)}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower data dir holds %v, want %v", got, want)
	}
	if _, jobs := manifestJobs(t, dir); jobs[jobID]["workload"] != nil {
		t.Fatal("follower manifest carries the workload inline")
	}
	// And ordinary recovery accepts it: promotion is New() over that dir.
	wantStatus, err := s.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	s.CrashForTest()
	promoted, err := fl.Promote()
	if err != nil {
		t.Fatalf("promotion over the caught-up data dir: %v", err)
	}
	defer promoted.Close()
	gotStatus, err := promoted.JobStatus(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if gotStatus.Completed != wantStatus.Completed || gotStatus.Remaining != wantStatus.Remaining {
		t.Fatalf("promoted job %+v, leader had %+v", gotStatus, wantStatus)
	}
	if rest := pullSequence(t, promoted, -1); len(rest) != wantStatus.Remaining {
		t.Fatalf("promoted node drained %d tasks, want %d", len(rest), wantStatus.Remaining)
	}
}

// TestFollowerHaltsOnDivergence feeds the standby a stream with an LSN
// gap. It must halt — permanently, without applying past the gap — while
// continuing to serve the prefix it holds.
func TestFollowerHaltsOnDivergence(t *testing.T) {
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != replicate.StreamPath {
			http.NotFound(w, r)
			return
		}
		enc := replicate.NewEncoder(w)
		_ = enc.Frame(1, []byte(`{"op":"quota","tenant":"ta","quota":5,"ts":1}`))
		_ = enc.Frame(3, []byte(`{"op":"quota","tenant":"tb","quota":9,"ts":2}`)) // gap: 2 skipped
		_ = enc.Flush()
	}))
	t.Cleanup(leader.Close)

	fl := startFollower(t, leader.URL)
	deadline := time.Now().Add(5 * time.Second)
	for fl.Halted() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower never halted on the LSN gap")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fl.LastLSN() != 1 {
		t.Fatalf("follower at lsn %d after halt, want 1 (nothing past the gap)", fl.LastLSN())
	}
	// Still serving the valid prefix, and the halt is scrapeable.
	var rd api.Readiness
	getJSON(t, fl.Handler(), "/readyz", &rd)
	if rd.LastLSN != 1 {
		t.Fatalf("halted follower readiness %+v", rd)
	}
	if fl.ReplicationCounters().Halted.Load() != 1 {
		t.Fatal("halt not reflected in the gridsched_replication_halted gauge")
	}
}

// TestFollowerResumesAcrossRestart closes a caught-up follower and builds
// a new one over the same data dir: it must resume from its local LSN,
// not refetch history, and still match the leader.
func TestFollowerResumesAcrossRestart(t *testing.T) {
	s, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	dir := t.TempDir()
	cfg := durableConfig(dir)
	fl, err := service.NewFollower(cfg, service.FollowerConfig{Leader: srv.URL, ReconnectMax: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitByName("j", "rest", syntheticWorkload(8, 3), 5, ""); err != nil {
		t.Fatal(err)
	}
	pullSequence(t, s, 3)
	waitCaughtUp(t, fl, s)
	resumeFrom := fl.LastLSN()
	fl.Close()

	pullSequence(t, s, 3) // progress while the standby is down

	fl2, err := service.NewFollower(cfg, service.FollowerConfig{Leader: srv.URL, ReconnectMax: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if fl2.LastLSN() < resumeFrom {
		t.Fatalf("restarted follower regressed: lsn %d, had %d", fl2.LastLSN(), resumeFrom)
	}
	waitCaughtUp(t, fl2, s)
	if got := fl2.ReplicationCounters().FramesApplied.Load(); got == 0 {
		t.Fatal("restarted follower applied nothing — stream did not resume")
	}
}

// TestPromotedFollowerDispatchMatchesLeaderRecovery is the identity proof
// behind failover: kill the leader, promote the standby, and the promoted
// node must dispatch the remaining tasks in exactly the order the
// uninterrupted leader would have — same schedulers, same RNG draws, same
// fair-share state, reconstructed purely from replicated frames.
func TestPromotedFollowerDispatchMatchesLeaderRecovery(t *testing.T) {
	const tasks, prefix = 80, 30
	w := syntheticWorkload(tasks, 4)

	// Reference: one uninterrupted in-memory service.
	ref := newService(t, service.Config{NewScheduler: gridsched.SchedulerFactory()})
	if _, err := ref.SubmitByName("job", "combined.2", w, 99, ""); err != nil {
		t.Fatal(err)
	}
	refSeq := pullSequence(t, ref, -1)
	if len(refSeq) != tasks {
		t.Fatalf("reference dispatched %d of %d", len(refSeq), tasks)
	}

	// Leader + hot standby.
	leader, err := service.New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	srv := httptest.NewServer(leader.Handler())
	t.Cleanup(srv.Close)
	fl := startFollower(t, srv.URL)

	if _, err := leader.SubmitByName("job", "combined.2", w, 99, ""); err != nil {
		t.Fatal(err)
	}
	gotSeq := pullSequence(t, leader, prefix)
	waitCaughtUp(t, fl, leader)

	// Leader dies without warning; standby takes over.
	leader.CrashForTest()
	svc, err := fl.Promote()
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	defer svc.Close()
	if !fl.Promoted() {
		t.Fatal("Promoted() false after successful Promote")
	}
	gotSeq = append(gotSeq, pullSequence(t, svc, -1)...)

	if len(gotSeq) != len(refSeq) {
		t.Fatalf("dispatched %d tasks across the failover, reference %d", len(gotSeq), len(refSeq))
	}
	for i := range refSeq {
		if gotSeq[i] != refSeq[i] {
			t.Fatalf("dispatch %d: task %d after failover, task %d uninterrupted", i, gotSeq[i], refSeq[i])
		}
	}

	// Second promotion attempt is refused.
	if _, err := fl.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	} else if se := new(service.Error); !asServiceError(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("second Promote error: %v", err)
	}
}
